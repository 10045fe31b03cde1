#ifndef ALPHAEVOLVE_MARKET_DATASET_H_
#define ALPHAEVOLVE_MARKET_DATASET_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "market/features.h"
#include "market/types.h"
#include "market/universe.h"
#include "util/rng.h"

namespace alphaevolve::market {

struct SimTrace;

/// Which sample split a date belongs to (chronological, as in the paper:
/// 988 / 116 / 116 of 1220 days ≈ 81% / 9.5% / 9.5%).
enum class Split { kTrain, kValid, kTest };

/// Dataset assembly options.
struct DatasetConfig {
  double train_fraction = 0.81;
  double valid_fraction = 0.095;
  double min_price = 1.0;      ///< Filter 2: drop stocks that ever trade below.
};

/// Allocator for the panel tape: each array is its own anonymous page
/// mapping, returned to the OS when freed. Multi-MB tapes come and go with
/// every dataset and scenario world; through the heap, glibc's adaptive mmap
/// threshold would start placing them in a thread's arena once one is freed,
/// where the freed pages stay resident. Elements are default-initialised:
/// fresh pages arrive zeroed, and Build overwrites every element anyway.
void* MapPages(size_t bytes);
void UnmapPages(void* p, size_t bytes);

template <class T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) {}
  T* allocate(size_t n) { return static_cast<T*>(MapPages(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { UnmapPages(p, n * sizeof(T)); }
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }
};

template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// The immutable per-panel tape: feature/label/close series for every
/// surviving stock, shared (via shared_ptr) between a base dataset and any
/// number of copy-on-write views derived from it — scenario overlays add a
/// label perturbation function and/or a task subset on top instead of
/// duplicating these arrays.
///
/// The layout is date-major, matching the executor's lockstep order (one
/// date across all tasks, paper §4): a date's features, labels and closes
/// for every row are one contiguous stream.
struct PanelStorage {
  int rows = 0;  ///< surviving stocks
  PageVector<float> features;  ///< [day][row][13]
  PageVector<double> labels;   ///< [day][row]
  PageVector<double> closes;   ///< [day][row]
  std::vector<int> source;  ///< [row] original (pre-filter) panel stock id

  /// Bytes of every array above.
  size_t bytes() const;
};

/// Label perturbation applied lazily on read. `source_id` is the original
/// simulation stock id of the task (PanelStorage::source), so an overlay
/// backed by a SimTrace can index the trace directly.
using LabelOverlayFn = double (*)(const void* ctx, int source_id, int date,
                                  double base_label);

/// The multi-task regression dataset: one task per surviving stock, samples
/// (X ∈ R^{13×13}, y = next-day return) aligned on a shared calendar.
///
/// Filtering (paper §5.1): stocks with insufficient samples (delisted before
/// the calendar end) and stocks reaching too-low prices are removed, so every
/// remaining task is active on every date — which is what makes lockstep
/// cross-task execution of RelationOps well-defined on each date.
///
/// A Dataset is a cheap *view* over an immutable shared PanelStorage: copying
/// one copies indices and metadata, never the tape. `WithLabelOverlay` and
/// `Subset` derive scenario views in O(tasks); `Materialized` folds a view
/// back into standalone storage (the bitwise reference the lazy path is
/// tested against). Only labels are ever perturbed — features and closes are
/// always the shared base tape, which is what makes the sharing sound: a
/// regime overlay changes *outcomes*, not the observable history the model
/// conditions on.
class Dataset {
 public:
  /// Builds the dataset from a simulated panel. `universe` provides
  /// sector/industry ids; tasks are re-indexed densely after filtering
  /// (the original panel id of task k remains available as `source_id(k)`).
  static Dataset Build(const std::vector<StockSeries>& panel,
                       const DatasetConfig& config);

  /// Convenience: generate a universe + panel from `mc` and build. `trace`,
  /// when non-null, captures the simulation draws (see SimTrace) for
  /// copy-on-write scenario overlays.
  static Dataset Simulate(const MarketConfig& mc, const DatasetConfig& config,
                          SimTrace* trace = nullptr);

  /// A view sharing this dataset's storage whose labels are
  /// `fn(ctx, source_id(task), date, base_label)`. `ctx` is kept alive by the
  /// returned view. The base dataset must not already carry an overlay.
  Dataset WithLabelOverlay(LabelOverlayFn fn,
                           std::shared_ptr<const void> ctx) const;

  /// A view restricted to `keep` (strictly increasing task indices, >= 2 so
  /// cross-sectional ops stay well-defined). Tasks are re-indexed densely,
  /// sector/industry groups rebuilt in first-appearance order; storage and
  /// any overlay are shared.
  Dataset Subset(const std::vector<int>& keep) const;

  /// Deep copy with its own storage: the overlay (if any) is folded into the
  /// labels and rows are re-packed 0..num_tasks-1. Bitwise-identical reads to
  /// the lazy view it came from — the parity reference for overlay tests.
  Dataset Materialized() const;

  int num_tasks() const { return static_cast<int>(meta_.size()); }
  int num_features() const { return kNumFeatures; }
  /// w, the days of the input window: equal to kNumFeatures (13), so the
  /// input matrix X is square.
  int window() const { return kNumFeatures; }

  const StockMeta& task_meta(int task) const { return meta_[task]; }

  /// Original panel stock id of this task (stable across Subset views).
  int source_id(int task) const {
    return storage_->source[static_cast<size_t>(row_of_[task])];
  }

  /// Dense sector/industry group ids (0-based, only groups with members).
  int sector_of(int task) const { return sector_of_[task]; }
  int industry_of(int task) const { return industry_of_[task]; }
  int num_sector_groups() const { return static_cast<int>(sector_tasks_.size()); }
  int num_industry_groups() const {
    return static_cast<int>(industry_tasks_.size());
  }
  const std::vector<int>& sector_tasks(int group) const {
    return sector_tasks_[group];
  }
  const std::vector<int>& industry_tasks(int group) const {
    return industry_tasks_[group];
  }

  /// Date indices (into the shared calendar) per split, in chronological
  /// order. Every listed date has a full feature window and a next-day label.
  const std::vector<int>& dates(Split split) const;

  /// Label: the return of day date+1, (close[t+1] - close[t]) / close[t],
  /// after the scenario overlay (if any).
  double Label(int task, int date) const {
    const size_t row = static_cast<size_t>(row_of_[task]);
    const double base =
        storage_->labels[static_cast<size_t>(date) * rows() + row];
    if (overlay_ == nullptr) return base;
    return overlay_(overlay_ctx_.get(), storage_->source[row], date, base);
  }

  /// Copies the w most recent feature columns into `out` (row-major f×w,
  /// out[f*w + j], column w-1 = day `date`). `out` must hold 13*w doubles.
  /// Column j is the 13 floats at FeatureRow(task, date - w + 1 + j).
  void FillInputMatrix(int task, int date, double* out) const;

  /// Floats between one day's tape and the next: storage rows × 13. This is
  /// a property of the shared storage, not of the view, so a Subset view
  /// steps by the full universe.
  size_t day_stride() const {
    return rows() * static_cast<size_t>(kNumFeatures);
  }

  /// Pointer to the 13 contiguous features of (task, date); valid for dates
  /// in splits. Rows of one date sit next to each other, so
  /// FeatureRow(task, date + 1) == FeatureRow(task, date) + day_stride().
  const float* FeatureRow(int task, int date) const {
    return storage_->features.data() +
           static_cast<size_t>(date) * day_stride() +
           static_cast<size_t>(row_of_[task]) * kNumFeatures;
  }

  /// Raw close price (for examples / diagnostics).
  double Close(int task, int date) const {
    return storage_->closes[static_cast<size_t>(date) * rows() +
                            static_cast<size_t>(row_of_[task])];
  }

  int num_days() const { return num_days_; }
  int first_usable_date() const { return first_usable_date_; }

  /// The shared tape. Views derived from one base return the same pointer —
  /// resident-memory accounting dedups on it.
  const std::shared_ptr<const PanelStorage>& storage() const {
    return storage_;
  }

  /// Resident bytes of the backing storage (shared across views).
  size_t StorageBytes() const { return storage_->bytes(); }

 private:
  size_t rows() const { return static_cast<size_t>(storage_->rows); }

  int num_days_ = 0;
  int first_usable_date_ = 0;
  std::vector<StockMeta> meta_;
  std::vector<int> sector_of_;
  std::vector<int> industry_of_;
  std::vector<std::vector<int>> sector_tasks_;
  std::vector<std::vector<int>> industry_tasks_;
  std::shared_ptr<const PanelStorage> storage_;
  std::vector<int> row_of_;  ///< task -> row in *storage_
  LabelOverlayFn overlay_ = nullptr;
  std::shared_ptr<const void> overlay_ctx_;
  std::vector<int> train_dates_, valid_dates_, test_dates_;
};

}  // namespace alphaevolve::market

#endif  // ALPHAEVOLVE_MARKET_DATASET_H_
