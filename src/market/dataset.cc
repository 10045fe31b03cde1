#include "market/dataset.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <unordered_map>
#include <utility>

#include "market/simulator.h"
#include "util/check.h"

namespace alphaevolve::market {

void* MapPages(size_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void UnmapPages(void* p, size_t bytes) {
  if (p != nullptr) munmap(p, bytes);
}

size_t PanelStorage::bytes() const {
  return features.size() * sizeof(float) + labels.size() * sizeof(double) +
         closes.size() * sizeof(double) + source.size() * sizeof(int);
}

Dataset Dataset::Build(const std::vector<StockSeries>& panel,
                       const DatasetConfig& config) {
  AE_CHECK_MSG(config.train_fraction > 0.0 && config.valid_fraction > 0.0 &&
                   config.train_fraction + config.valid_fraction < 1.0,
               "split fractions must be positive and leave room for a test "
               "split (train_fraction + valid_fraction < 1)");
  AE_CHECK(!panel.empty());

  // The shared calendar length is the maximum series length; only stocks
  // that are listed for the whole calendar survive (filter 1).
  int num_days = 0;
  for (const auto& s : panel) {
    num_days = std::max(num_days, static_cast<int>(s.bars.size()));
  }

  Dataset ds;
  ds.num_days_ = num_days;

  // Survivors first, so the date-major tape is allocated once at its final
  // size and each stock's series is scattered straight into it.
  std::vector<const StockSeries*> kept;
  std::unordered_map<int, int> sector_remap, industry_remap;
  for (const auto& s : panel) {
    if (static_cast<int>(s.bars.size()) < num_days) continue;  // filter 1
    bool too_low = false;
    for (const auto& bar : s.bars) {
      if (bar.close < config.min_price) {
        too_low = true;  // filter 2
        break;
      }
    }
    if (too_low) continue;

    const int task = static_cast<int>(kept.size());
    kept.push_back(&s);
    StockMeta meta = s.meta;
    meta.id = task;
    ds.meta_.push_back(meta);
    ds.row_of_.push_back(task);

    auto [sec_it, sec_new] =
        sector_remap.emplace(s.meta.sector,
                             static_cast<int>(ds.sector_tasks_.size()));
    if (sec_new) ds.sector_tasks_.emplace_back();
    ds.sector_of_.push_back(sec_it->second);
    ds.sector_tasks_[static_cast<size_t>(sec_it->second)].push_back(task);

    auto [ind_it, ind_new] =
        industry_remap.emplace(s.meta.industry,
                               static_cast<int>(ds.industry_tasks_.size()));
    if (ind_new) ds.industry_tasks_.emplace_back();
    ds.industry_of_.push_back(ind_it->second);
    ds.industry_tasks_[static_cast<size_t>(ind_it->second)].push_back(task);
  }
  AE_CHECK_MSG(!kept.empty(), "all stocks were filtered out");

  auto storage = std::make_shared<PanelStorage>();
  const size_t rows = kept.size();
  const size_t days = static_cast<size_t>(num_days);
  storage->rows = static_cast<int>(rows);
  storage->features.resize(days * rows * kNumFeatures);
  storage->labels.resize(days * rows);
  storage->closes.resize(days * rows);
  storage->source.resize(rows);

  // A few stocks at a time: each date then writes one contiguous run of
  // rows per array instead of one scattered cache line per stock.
  constexpr size_t kScatterRows = 16;
  std::vector<std::vector<float>> series(kScatterRows);
  for (size_t r0 = 0; r0 < rows; r0 += kScatterRows) {
    const size_t r1 = std::min(rows, r0 + kScatterRows);
    for (size_t r = r0; r < r1; ++r) {
      series[r - r0] = BuildFeatureSeries(*kept[r]);
      storage->source[r] = kept[r]->meta.id;
    }
    for (size_t t = 0; t < days; ++t) {
      float* features =
          storage->features.data() + (t * rows + r0) * kNumFeatures;
      double* closes = storage->closes.data() + t * rows;
      double* labels = storage->labels.data() + t * rows;
      for (size_t r = r0; r < r1; ++r, features += kNumFeatures) {
        std::copy_n(series[r - r0].data() + t * kNumFeatures, kNumFeatures,
                    features);
        const auto& bars = kept[r]->bars;
        closes[r] = bars[t].close;
        labels[r] = t + 1 < days
                        ? (bars[t + 1].close - bars[t].close) / bars[t].close
                        : 0.0;
      }
    }
  }
  ds.storage_ = std::move(storage);

  // Usable dates: full feature window available and a next-day label exists.
  ds.first_usable_date_ = kFeatureWarmup - 1 + kNumFeatures - 1;
  const int last_usable_date = num_days - 2;
  AE_CHECK_MSG(ds.first_usable_date_ <= last_usable_date,
               "calendar too short for the feature window");
  const int usable = last_usable_date - ds.first_usable_date_ + 1;

  const int train_n = static_cast<int>(usable * config.train_fraction);
  const int valid_n = static_cast<int>(usable * config.valid_fraction);
  AE_CHECK(train_n >= 1 && valid_n >= 1 &&
           usable - train_n - valid_n >= 1);
  for (int i = 0; i < usable; ++i) {
    const int date = ds.first_usable_date_ + i;
    if (i < train_n) {
      ds.train_dates_.push_back(date);
    } else if (i < train_n + valid_n) {
      ds.valid_dates_.push_back(date);
    } else {
      ds.test_dates_.push_back(date);
    }
  }
  return ds;
}

Dataset Dataset::Simulate(const MarketConfig& mc, const DatasetConfig& config,
                          SimTrace* trace) {
  Rng rng(mc.seed);
  const Universe universe = Universe::Generate(mc, rng);
  const auto panel = MarketSimulator::Simulate(mc, universe, rng, trace);
  return Build(panel, config);
}

Dataset Dataset::WithLabelOverlay(LabelOverlayFn fn,
                                  std::shared_ptr<const void> ctx) const {
  AE_CHECK_MSG(overlay_ == nullptr,
               "stacking label overlays is not supported; derive every "
               "scenario view from the base dataset");
  Dataset view = *this;  // shares storage_; copies indices + metadata
  view.overlay_ = fn;
  view.overlay_ctx_ = std::move(ctx);
  return view;
}

Dataset Dataset::Subset(const std::vector<int>& keep) const {
  AE_CHECK_MSG(static_cast<int>(keep.size()) >= 2,
               "a dataset needs >= 2 tasks for cross-sectional ops");
  Dataset view = *this;
  view.meta_.clear();
  view.row_of_.clear();
  view.sector_of_.clear();
  view.industry_of_.clear();
  view.sector_tasks_.clear();
  view.industry_tasks_.clear();

  // Dense sector/industry ids are rebuilt in first-appearance order over the
  // kept tasks — the same convention Build uses over the raw panel.
  std::unordered_map<int, int> sector_remap, industry_remap;
  int prev = -1;
  for (const int task : keep) {
    AE_CHECK_MSG(task > prev && task < num_tasks(),
                 "Subset expects strictly increasing in-range task indices");
    prev = task;
    const int new_task = static_cast<int>(view.meta_.size());
    StockMeta meta = meta_[static_cast<size_t>(task)];
    meta.id = new_task;
    view.meta_.push_back(meta);
    view.row_of_.push_back(row_of_[static_cast<size_t>(task)]);

    auto [sec_it, sec_new] =
        sector_remap.emplace(sector_of_[static_cast<size_t>(task)],
                             static_cast<int>(view.sector_tasks_.size()));
    if (sec_new) view.sector_tasks_.emplace_back();
    view.sector_of_.push_back(sec_it->second);
    view.sector_tasks_[static_cast<size_t>(sec_it->second)].push_back(new_task);

    auto [ind_it, ind_new] =
        industry_remap.emplace(industry_of_[static_cast<size_t>(task)],
                               static_cast<int>(view.industry_tasks_.size()));
    if (ind_new) view.industry_tasks_.emplace_back();
    view.industry_of_.push_back(ind_it->second);
    view.industry_tasks_[static_cast<size_t>(ind_it->second)].push_back(
        new_task);
  }
  return view;
}

Dataset Dataset::Materialized() const {
  auto storage = std::make_shared<PanelStorage>();
  const int n = num_tasks();
  const size_t rows = static_cast<size_t>(n);
  const size_t days = static_cast<size_t>(num_days_);
  storage->rows = n;
  storage->features.resize(days * rows * kNumFeatures);
  storage->labels.resize(days * rows);
  storage->closes.resize(days * rows);
  storage->source.resize(rows);
  for (int task = 0; task < n; ++task) {
    storage->source[static_cast<size_t>(task)] = source_id(task);
  }
  // Label() folds the overlay in at *every* date — the overlay is expected
  // to be well-defined on the full calendar (it must return the base label
  // wherever it has nothing to perturb), so lazy and materialized reads
  // agree bitwise everywhere.
  float* features = storage->features.data();
  double* labels = storage->labels.data();
  double* closes = storage->closes.data();
  for (int t = 0; t < num_days_; ++t) {
    for (int task = 0; task < n; ++task) {
      std::copy_n(FeatureRow(task, t), kNumFeatures, features);
      features += kNumFeatures;
      *labels++ = Label(task, t);
      *closes++ = Close(task, t);
    }
  }

  Dataset copy = *this;
  copy.storage_ = std::move(storage);
  copy.overlay_ = nullptr;
  copy.overlay_ctx_.reset();
  copy.row_of_.assign(rows, 0);
  for (int task = 0; task < n; ++task) copy.row_of_[task] = task;
  return copy;
}

const std::vector<int>& Dataset::dates(Split split) const {
  switch (split) {
    case Split::kTrain:
      return train_dates_;
    case Split::kValid:
      return valid_dates_;
    case Split::kTest:
      return test_dates_;
  }
  AE_CHECK(false);
  return train_dates_;  // unreachable
}

void Dataset::FillInputMatrix(int task, int date, double* out) const {
  const int w = kNumFeatures;
  const size_t stride = day_stride();
  const float* col = FeatureRow(task, date - w + 1);
  for (int j = 0; j < w; ++j, col += stride) {
    for (int f = 0; f < kNumFeatures; ++f) {
      out[f * w + j] = static_cast<double>(col[f]);
    }
  }
}

}  // namespace alphaevolve::market
