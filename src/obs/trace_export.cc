#include "obs/trace_export.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string_view>

#include "obs/trace.h"
#include "util/json.h"
#include "util/table.h"

namespace alphaevolve::obs {

std::string ToChromeTraceJson(const TraceRecorder& recorder) {
  std::vector<TraceRecorder::CollectedEvent> events = recorder.Collect();
  // Chrome's viewer sorts internally, but stable ts order keeps the artifact
  // diffable across runs of the same single-threaded workload.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceRecorder::CollectedEvent& a,
                      const TraceRecorder::CollectedEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.event.start_ns < b.event.start_ns;
                   });
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();
  for (const TraceRecorder::CollectedEvent& ce : events) {
    w.BeginObject();
    w.Key("name").Value(std::string_view(ce.event.name));
    w.Key("ph").Value("X");
    w.Key("ts").Value(static_cast<double>(ce.event.start_ns) / 1000.0);
    w.Key("dur").Value(static_cast<double>(ce.event.dur_ns) / 1000.0);
    w.Key("pid").Value(0);
    w.Key("tid").Value(ce.tid);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

void PrintSpanSummary(const TraceRecorder& recorder, std::ostream& os) {
  struct Agg {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  std::map<std::string_view, Agg> by_name;
  for (const TraceRecorder::CollectedEvent& ce : recorder.Collect()) {
    Agg& a = by_name[ce.event.name];
    ++a.count;
    a.total_ns += ce.event.dur_ns;
    a.max_ns = std::max(a.max_ns, ce.event.dur_ns);
  }
  TablePrinter table({"span", "count", "total_ms", "mean_us", "max_us"});
  for (const auto& [name, a] : by_name) {
    table.AddRow({std::string(name), std::to_string(a.count),
                  TablePrinter::Num(static_cast<double>(a.total_ns) / 1e6),
                  TablePrinter::Num(static_cast<double>(a.total_ns) / 1e3 /
                                    static_cast<double>(a.count)),
                  TablePrinter::Num(static_cast<double>(a.max_ns) / 1e3)});
  }
  table.Print(os);
  const int64_t dropped = recorder.DroppedCount();
  if (dropped > 0) {
    os << "(" << dropped
       << " span events dropped; each thread keeps its newest ones)"
       << "\n";
  }
}

}  // namespace alphaevolve::obs
