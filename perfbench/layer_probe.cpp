// layer_probe: per-layer timings of the scenario engine, taken from
// outside the engine through its public headers only.
//
//   layer_probe layers --sets DIR --golden DIR --small-cache DIR
//                      --large-cache DIR --fork-body FILE --scratch DIR
//   layer_probe keys FILE.rvset        # hex cache key of every cell
//
// `layers` prints one JSON document on stdout:
//   {"metrics": {name: [value, unit], ...}, "attempted": N, "failed": N,
//    "failures": [...], "detail": {...}}
//
// Every replay is built from a shipped set's own cells (examples/sets)
// and checked against the engine's own counters: a replayed sweep must
// consume exactly the segments and perform exactly the metric
// evaluations that `ContactSweep` and the family runners report.  A
// mismatch is a failed check, never a dropped row.
//
// Per-call costs (`*.ns`, `*.us`) are measured on strided samples of
// the real call sequence; any layer total derived from them is
// calls x per-call cost and is labelled "computed" in the detail.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/cache_store.hpp"
#include "engine/contact_sweep.hpp"
#include "engine/families.hpp"
#include "engine/metric_kernel.hpp"
#include "engine/runner.hpp"
#include "engine/serve.hpp"
#include "engine/set_decl.hpp"
#include "engine/shard.hpp"
#include "engine/supervisor.hpp"
#include "gather/multi_simulator.hpp"
#include "geom/attributes.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/core.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"
#include "traj/program.hpp"

namespace fs = std::filesystem;
namespace eng = rv::engine;
using rv::geom::Vec2;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps the optimiser from deleting timed calls.
volatile double g_sink = 0.0;

const char* const kSets[] = {"rendezvous-grid", "search-ring", "gather-fleet",
                             "linear-line", "coverage-disk"};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> detail;  // raw JSON
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& raw_json) {
    detail.push_back({key, raw_json});
  }
  /// One correctness check: counted as attempted, and as failed with
  /// `message` when `ok` is false.
  void check(bool ok, const std::string& message) {
    ++attempted;
    if (!ok) failures.push_back(message);
  }

  void print(std::ostream& os) const {
    os << "{\"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << json_string(metrics[i].first) << ": ["
         << json_number(metrics[i].second.first) << ", "
         << json_string(metrics[i].second.second) << "]";
    }
    os << "}, \"attempted\": " << attempted
       << ", \"failed\": " << failures.size() << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      os << (i ? ", " : "") << json_string(failures[i]);
    }
    os << "], \"detail\": {";
    for (std::size_t i = 0; i < detail.size(); ++i) {
      os << (i ? ", " : "") << json_string(detail[i].first) << ": "
         << detail[i].second;
    }
    os << "}}\n";
  }
};

// ---------------------------------------------------------------------------
// Strided samples of a long call sequence
// ---------------------------------------------------------------------------

/// Keeps every stride-th element of a sequence of unknown length; when
/// the buffer is full it drops every other kept element and doubles
/// the stride, so the sample stays evenly spread over the whole
/// sequence.  Call `wants()` before building an element, then `offer`
/// it (or `skip()`).
template <typename T>
class StridedSample {
 public:
  explicit StridedSample(std::size_t capacity) : capacity_(capacity) {}
  bool wants() const { return seen_ % stride_ == 0; }
  void skip() { ++seen_; }
  /// Stores the element when the (possibly doubled) stride keeps it;
  /// returns it, valid until the next `offer`, or null.
  T* offer(T value) {
    const std::uint64_t index = seen_++;
    if (index % stride_ != 0) return nullptr;
    if (items_.size() >= capacity_) {
      std::vector<T> kept;
      kept.reserve(capacity_);
      for (std::size_t i = 0; i < items_.size(); i += 2) {
        kept.push_back(std::move(items_[i]));
      }
      items_ = std::move(kept);
      stride_ *= 2;
      if (index % stride_ != 0) return nullptr;
    }
    items_.push_back(std::move(value));
    return &items_.back();
  }
  const std::vector<T>& items() const { return items_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<T> items_;
};

// ---------------------------------------------------------------------------
// Sweep specs built from the shipped sets' own cells
// ---------------------------------------------------------------------------

/// One certified sweep of a shipped cell, rebuildable any number of
/// times (programs are stateful generators, so each run needs fresh
/// ones).
struct SweepSpec {
  std::string set;    ///< shipped set it comes from
  std::string label;  ///< cell label / sweep name
  eng::SweepMetric metric = eng::SweepMetric::kMinPairwise;
  eng::SweepOptions options;
  std::function<std::shared_ptr<rv::traj::Program>(std::size_t)> program_of;
  std::vector<rv::geom::RobotAttributes> attrs;
  std::vector<Vec2> origins;

  std::vector<eng::RobotSpec> robots() const {
    std::vector<eng::RobotSpec> out;
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      out.push_back({program_of(i), attrs[i], origins[i]});
    }
    return out;
  }
};

std::shared_ptr<rv::traj::Program> search_program(eng::SearchProgram p) {
  switch (p) {
    case eng::SearchProgram::kAlgorithm4: return rv::search::make_search_program();
    case eng::SearchProgram::kConcentric:
      return rv::search::make_concentric_baseline();
    case eng::SearchProgram::kSquareSpiral:
      return rv::search::make_square_spiral_baseline();
  }
  throw std::invalid_argument("unknown search program");
}

std::vector<eng::WorkItem> load_work(const fs::path& sets_dir,
                                     const std::string& set) {
  return eng::parse_set_decl_file(sets_dir / (set + ".rvset"))
      .set.materialize_work();
}

/// The 6 sweeps of gather-fleet: first contact and all-pairs per cell,
/// built exactly as `run_gather_cell` builds them.
std::vector<SweepSpec> gather_sweeps(const std::vector<eng::WorkItem>& work) {
  std::vector<SweepSpec> out;
  for (const eng::WorkItem& item : work) {
    const eng::GatherCell& cell = item.gather;
    const auto factory = rv::rendezvous::program_factory(cell.algorithm);
    for (const bool contact : {true, false}) {
      SweepSpec s;
      s.set = "gather-fleet";
      s.label = item.label + (contact ? " / contact" : " / all-pairs");
      s.metric = contact ? eng::SweepMetric::kMinPairwise
                         : eng::SweepMetric::kMaxPairwise;
      s.options.visibility = cell.visibility;
      s.options.max_time = contact ? cell.contact_max_time : cell.gather_max_time;
      s.program_of = [factory](std::size_t) { return factory(); };
      s.attrs = cell.fleet;
      for (std::size_t i = 0; i < cell.fleet.size(); ++i) {
        s.origins.push_back(eng::gather_origin(cell, i));
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// The per-angle sweeps of every search-ring cell, built exactly as
/// `run_search_cell` builds them (ring targets, stationary target).
std::vector<SweepSpec> search_sweeps(const std::vector<eng::WorkItem>& work) {
  std::vector<SweepSpec> out;
  for (const eng::WorkItem& item : work) {
    const eng::SearchCell& cell = item.search;
    const int count = cell.targets.empty()
                          ? cell.angles
                          : static_cast<int>(cell.targets.size());
    for (int a = 0; a < count; ++a) {
      const Vec2 target =
          cell.targets.empty()
              ? rv::geom::polar(cell.distance, 2.0 * rv::mathx::kPi * a /
                                                       cell.angles +
                                                   cell.angle_offset)
              : cell.targets[static_cast<std::size_t>(a)];
      SweepSpec s;
      s.set = "search-ring";
      s.label = item.label + " / angle " + std::to_string(a);
      s.options.visibility = cell.visibility;
      s.options.max_time = cell.max_time;
      const eng::SearchProgram program = cell.program;
      s.program_of = [program](std::size_t i) -> std::shared_ptr<rv::traj::Program> {
        if (i == 0) return search_program(program);
        return std::make_shared<rv::traj::StationaryProgram>();
      };
      s.attrs = {cell.attrs, rv::geom::reference_attributes()};
      s.origins = {{0.0, 0.0}, target};
      out.push_back(std::move(s));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The outside replay of the bisection sweep
// ---------------------------------------------------------------------------

/// Counts (and samples) the local segments a program emits.
class CountingProgram final : public rv::traj::Program {
 public:
  CountingProgram(std::shared_ptr<rv::traj::Program> inner, std::uint64_t* count,
                  StridedSample<rv::traj::Segment>* sample)
      : inner_(std::move(inner)), count_(count), sample_(sample) {}
  rv::traj::Segment next() override {
    rv::traj::Segment s = inner_->next();
    ++*count_;
    if (sample_->wants()) {
      (void)sample_->offer(s);
    } else {
      sample_->skip();
    }
    return s;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<rv::traj::Program> inner_;
  std::uint64_t* count_;
  StridedSample<rv::traj::Segment>* sample_;
};

/// A sampled sweep window: the fleet's current segments and the times
/// the sweep evaluated inside it.
struct Window {
  std::vector<rv::traj::TimedSegment> segments;
  std::vector<double> eval_times;
};

struct Replay {
  std::uint64_t segments = 0;   ///< GlobalSegmentStream::next calls
  std::uint64_t evals = 0;      ///< metric evaluations
  std::uint64_t assembles = 0;  ///< BatchedPositions::assemble calls
  std::vector<std::uint64_t> program_next;  ///< Program::next calls per robot
  std::vector<std::uint64_t> stream_next;   ///< stream pulls per robot
  bool event = false;
  double time = 0.0;
  std::vector<std::vector<rv::traj::Segment>> local_samples;  ///< per robot
  std::vector<Window> windows;            ///< sampled windows
  std::vector<std::vector<Vec2>> points;  ///< sampled metric inputs
};

/// Re-runs `ContactSweep::run` (bisection) step for step from outside,
/// with the same public calls in the same order, counting and sampling
/// every stage.
Replay replay_sweep(const SweepSpec& spec) {
  constexpr std::size_t kSamples = 4096;
  const std::size_t n = spec.attrs.size();
  Replay rp;
  rp.program_next.assign(n, 0);
  rp.stream_next.assign(n, 0);
  std::vector<StridedSample<rv::traj::Segment>> local(
      n, StridedSample<rv::traj::Segment>(kSamples));
  StridedSample<Window> windows(kSamples);
  StridedSample<std::vector<Vec2>> points(kSamples);

  std::vector<rv::traj::GlobalSegmentStream> streams;
  for (std::size_t i = 0; i < n; ++i) {
    streams.emplace_back(std::make_shared<CountingProgram>(
                             spec.program_of(i), &rp.program_next[i], &local[i]),
                         spec.attrs[i], spec.origins[i]);
  }
  const eng::SweepOptions& o = spec.options;
  const double r = o.visibility;
  std::vector<rv::traj::TimedSegment> current;
  for (std::size_t i = 0; i < n; ++i) {
    current.push_back(streams[i].next());
    ++rp.stream_next[i];
    ++rp.segments;
  }
  rv::traj::BatchedPositions batch;
  batch.assemble(current);
  ++rp.assembles;
  Window* window = nullptr;
  const auto open_window = [&] {
    if (windows.wants()) {
      window = windows.offer(Window{current, {}});
    } else {
      windows.skip();
      window = nullptr;
    }
  };
  open_window();
  std::vector<Vec2> pos(n);
  const auto metric_of = [&](const std::vector<Vec2>& p) {
    return spec.metric == eng::SweepMetric::kMinPairwise
               ? eng::min_pairwise(p, o.kernel).distance
               : eng::max_pairwise(p, o.kernel).distance;
  };
  const auto evaluate = [&](double at) {
    batch.positions(at, pos.data());
    ++rp.evals;
    if (window != nullptr) window->eval_times.push_back(at);
    if (points.wants()) {
      (void)points.offer(pos);
    } else {
      points.skip();
    }
    return metric_of(pos);
  };

  double t = 0.0;
  double prev_t = 0.0;
  bool have_prev = false;
  std::vector<double> speeds;
  while (t < o.max_time && rp.evals < o.max_evals) {
    double window_end = o.max_time;
    bool pulled = false;
    for (std::size_t i = 0; i < n; ++i) {
      while (current[i].t1 <= t) {
        current[i] = streams[i].next();
        ++rp.stream_next[i];
        ++rp.segments;
        pulled = true;
      }
      window_end = std::min(window_end, current[i].t1);
    }
    if (pulled) {
      batch.assemble(current);
      ++rp.assembles;
      open_window();
    }
    const double m = evaluate(t);
    if (m <= r + o.contact_tol) {
      double event_time = t;
      if (m < r && have_prev) {
        double lo = prev_t, hi = t;
        while (hi - lo > o.time_tol) {
          const double mid = 0.5 * (lo + hi);
          if (evaluate(mid) <= r) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        event_time = hi;
      }
      rp.event = true;
      rp.time = event_time;
      break;
    }
    prev_t = t;
    have_prev = true;
    speeds.clear();
    for (std::size_t i = 0; i < n; ++i) speeds.push_back(current[i].speed());
    const double lipschitz = eng::lipschitz_speed_sum(speeds);
    double step;
    if (lipschitz <= 0.0) {
      step = window_end - t;
      if (step <= 0.0) step = o.min_step;
    } else {
      step = (m - r) / lipschitz;
    }
    step = std::max(step, o.min_step);
    const double next_t = std::min(t + step, window_end);
    t = (next_t > t) ? next_t : t + o.min_step;
  }
  if (!rp.event) rp.time = std::min(t, o.max_time);
  for (auto& s : local) rp.local_samples.push_back(s.items());
  rp.windows = windows.items();
  rp.points = points.items();
  return rp;
}

// ---------------------------------------------------------------------------
// Per-call timings on the replay samples
// ---------------------------------------------------------------------------

constexpr int kRepeat = 16;  ///< repetitions per timed block

/// ns per BatchedPositions::assemble call over the sampled windows.
double time_assemble(const Replay& rp) {
  rv::traj::BatchedPositions batch;
  double total = 0.0;
  std::uint64_t calls = 0;
  for (const Window& w : rp.windows) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kRepeat; ++k) batch.assemble(w.segments);
    total += seconds_since(t0);
    calls += kRepeat;
  }
  return calls ? total * 1e9 / static_cast<double>(calls) : 0.0;
}

/// ns per BatchedPositions::positions call over the sampled windows'
/// real evaluation times.
double time_positions(const Replay& rp) {
  rv::traj::BatchedPositions batch;
  std::vector<Vec2> out;
  double total = 0.0;
  std::uint64_t calls = 0;
  for (const Window& w : rp.windows) {
    if (w.eval_times.empty()) continue;
    batch.assemble(w.segments);
    out.resize(w.segments.size());
    const auto t0 = Clock::now();
    for (int k = 0; k < kRepeat; ++k) {
      for (const double t : w.eval_times) batch.positions(t, out.data());
    }
    total += seconds_since(t0);
    calls += kRepeat * w.eval_times.size();
    g_sink = g_sink + out[0].x;
  }
  return calls ? total * 1e9 / static_cast<double>(calls) : 0.0;
}

/// ns per metric-kernel call over the sampled real positions.
double time_kernel(const Replay& rp, eng::SweepMetric metric) {
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kRepeat; ++k) {
    for (const auto& p : rp.points) {
      acc += metric == eng::SweepMetric::kMinPairwise
                 ? eng::min_pairwise(p).distance
                 : eng::max_pairwise(p).distance;
    }
  }
  const double total = seconds_since(t0);
  const std::uint64_t calls = kRepeat * rp.points.size();
  g_sink = g_sink + acc;
  return calls ? total * 1e9 / static_cast<double>(calls) : 0.0;
}

/// ns per to_global_geometry call over the sampled local segments.
double time_to_global(const SweepSpec& spec, const Replay& rp) {
  double total = 0.0;
  std::uint64_t calls = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < rp.local_samples.size(); ++i) {
    const auto& samples = rp.local_samples[i];
    const auto t0 = Clock::now();
    for (int k = 0; k < kRepeat; ++k) {
      for (const rv::traj::Segment& s : samples) {
        const rv::traj::Segment g =
            rv::traj::to_global_geometry(s, spec.attrs[i], spec.origins[i]);
        acc += rv::traj::duration(g);
      }
    }
    total += seconds_since(t0);
    calls += kRepeat * samples.size();
  }
  g_sink = g_sink + acc;
  return calls ? total * 1e9 / static_cast<double>(calls) : 0.0;
}

/// ns per Program::next call, pulling each robot's real count from a
/// fresh program.
double time_program_next(const SweepSpec& spec, const Replay& rp) {
  double total = 0.0;
  std::uint64_t calls = 0;
  for (std::size_t i = 0; i < spec.attrs.size(); ++i) {
    const auto program = spec.program_of(i);
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < rp.program_next[i]; ++k) {
      const rv::traj::Segment s = program->next();
      (void)s;
    }
    total += seconds_since(t0);
    calls += rp.program_next[i];
  }
  return calls ? total * 1e9 / static_cast<double>(calls) : 0.0;
}

/// ns per GlobalSegmentStream::next call (program + frame map + clock),
/// pulling each robot's real count from a fresh stream.
double time_stream_next(const SweepSpec& spec, const Replay& rp) {
  double total = 0.0;
  std::uint64_t calls = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < spec.attrs.size(); ++i) {
    rv::traj::GlobalSegmentStream stream(spec.program_of(i), spec.attrs[i],
                                         spec.origins[i]);
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < rp.stream_next[i]; ++k) {
      acc += stream.next().t1;
    }
    total += seconds_since(t0);
    calls += rp.stream_next[i];
  }
  g_sink = g_sink + acc;
  return calls ? total * 1e9 / static_cast<double>(calls) : 0.0;
}

/// Calls-weighted mean of per-sweep per-call costs: sum(calls x ns) /
/// sum(calls).  The numerator is the layer's computed total.
struct Weighted {
  double weighted_ns = 0.0;
  double calls = 0.0;
  void add(double ns, double n) {
    weighted_ns += ns * n;
    calls += n;
  }
  double mean() const { return calls > 0 ? weighted_ns / calls : 0.0; }
  double total_ms() const { return weighted_ns * 1e-6; }
};

eng::SweepResult run_sweep(const SweepSpec& spec, eng::SolverChoice solver) {
  eng::SweepOptions o = spec.options;
  o.solver = solver;
  eng::ContactSweep sweep(spec.robots(), spec.metric, o);
  return sweep.run();
}

// ---------------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------------

struct Args {
  fs::path sets, golden, small_cache, large_cache, fork_body, scratch;
};

/// traj, metric_kernel and contact_sweep, on the gather-fleet and
/// search-ring sweeps.
void probe_sweeps(const Args& a, Report& rep) {
  const auto gather_work = load_work(a.sets, "gather-fleet");
  const auto search_work = load_work(a.sets, "search-ring");
  const std::vector<SweepSpec> gather = gather_sweeps(gather_work);
  const std::vector<SweepSpec> search = search_sweeps(search_work);
  std::vector<const SweepSpec*> all;
  for (const auto& s : gather) all.push_back(&s);
  for (const auto& s : search) all.push_back(&s);

  // Engine counters: the family runners' own results.  `gather` holds
  // each cell's contact sweep, then its all-pairs sweep.
  std::uint64_t engine_segments = 0, engine_evals = 0;
  std::vector<rv::gather::GatherResult> gather_engine;
  for (const eng::WorkItem& item : gather_work) {
    const eng::GatherOutcome g = eng::run_gather_cell(item.gather);
    gather_engine.push_back(g.contact);
    gather_engine.push_back(g.gathered);
    engine_segments += g.contact.segments + g.gathered.segments;
    engine_evals += g.contact.evals + g.gathered.evals;
  }
  for (const eng::WorkItem& item : search_work) {
    const eng::SearchOutcome s = eng::run_search_cell(item.search);
    engine_segments += s.segments;
    engine_evals += s.evals;
  }

  Weighted program_next, to_global, stream_next, assemble, positions,
      kernel_min, kernel_max;
  std::uint64_t segments = 0, evals = 0, assembles = 0;
  std::uint64_t gather_segments = 0, gather_evals = 0;
  std::vector<eng::SweepResult> oracle;  // bisection, every sweep
  std::ostringstream sweeps_json;
  sweeps_json << "[";
  for (std::size_t k = 0; k < all.size(); ++k) {
    const SweepSpec& spec = *all[k];
    const Replay rp = replay_sweep(spec);
    const eng::SweepResult& ref =
        oracle.emplace_back(run_sweep(spec, eng::SolverChoice::kBisection));
    if (k < gather_engine.size()) {
      rep.check(gather_engine[k].segments == ref.segments &&
                    gather_engine[k].evals == ref.evals,
                spec.label + ": ContactSweep counters differ from "
                             "run_gather_cell");
    }
    rep.check(rp.segments == ref.segments && rp.evals == ref.evals &&
                  rp.event == ref.event && rp.time == ref.time,
              spec.set + " " + spec.label + ": replay counted " +
                  std::to_string(rp.segments) + " segments / " +
                  std::to_string(rp.evals) + " evals, engine " +
                  std::to_string(ref.segments) + " / " +
                  std::to_string(ref.evals));
    segments += rp.segments;
    evals += rp.evals;
    assembles += rp.assembles;
    if (spec.set == "gather-fleet") {
      gather_segments += rp.segments;
      gather_evals += rp.evals;
    }
    std::uint64_t pn = 0;
    for (const auto c : rp.program_next) pn += c;
    program_next.add(time_program_next(spec, rp), static_cast<double>(pn));
    to_global.add(time_to_global(spec, rp), static_cast<double>(pn));
    stream_next.add(time_stream_next(spec, rp), static_cast<double>(rp.segments));
    assemble.add(time_assemble(rp), static_cast<double>(rp.assembles));
    positions.add(time_positions(rp), static_cast<double>(rp.evals));
    (spec.metric == eng::SweepMetric::kMinPairwise ? kernel_min : kernel_max)
        .add(time_kernel(rp, spec.metric), static_cast<double>(rp.evals));
    if (spec.set == "gather-fleet") {
      sweeps_json << (k ? ", " : "") << "{\"set\": " << json_string(spec.set)
                  << ", \"sweep\": " << json_string(spec.label)
                  << ", \"robots\": " << spec.attrs.size()
                  << ", \"segments\": " << rp.segments
                  << ", \"evals\": " << rp.evals
                  << ", \"assembles\": " << rp.assembles
                  << ", \"program_next\": " << pn << "}";
    }
  }
  sweeps_json << "]";
  rep.check(segments == engine_segments && evals == engine_evals,
            "replayed totals differ from the family runners' counters");

  rep.metric("traj.program_next.ns", program_next.mean(), "ns");
  rep.metric("traj.to_global.ns", to_global.mean(), "ns");
  rep.metric("traj.stream_next.ns", stream_next.mean(), "ns");
  rep.metric("traj.assemble.ns", assemble.mean(), "ns");
  rep.metric("traj.positions.ns", positions.mean(), "ns");
  rep.metric("traj.segments", static_cast<double>(segments), "count");
  rep.metric("metric_kernel.min_pairwise.ns", kernel_min.mean(), "ns");
  rep.metric("metric_kernel.max_pairwise.ns", kernel_max.mean(), "ns");
  rep.metric("metric_kernel.evals", static_cast<double>(evals), "count");

  std::ostringstream computed;
  computed << "{\"replayed\": \"gather-fleet (" << gather.size()
           << " sweeps) + search-ring (" << search.size() << " sweeps)\""
           << ", \"segments\": " << segments << ", \"evals\": " << evals
           << ", \"assembles\": " << assembles
           << ", \"engine_segments\": " << engine_segments
           << ", \"engine_evals\": " << engine_evals
           << ", \"computed_ms\": {\"program_next\": "
           << json_number(program_next.total_ms())
           << ", \"to_global\": " << json_number(to_global.total_ms())
           << ", \"stream_next\": " << json_number(stream_next.total_ms())
           << ", \"assemble\": " << json_number(assemble.total_ms())
           << ", \"positions\": " << json_number(positions.total_ms())
           << ", \"min_pairwise\": " << json_number(kernel_min.total_ms())
           << ", \"max_pairwise\": " << json_number(kernel_max.total_ms())
           << "}, \"gather_sweeps\": " << sweeps_json.str() << "}";
  rep.note("traj_and_kernel", computed.str());

  // contact_sweep: the real gather-fleet sweeps, median of 3 passes.
  std::vector<double> contact_ms, allpairs_ms;
  for (int pass = 0; pass < 3; ++pass) {
    double c = 0.0, p = 0.0;
    for (const SweepSpec& spec : gather) {
      auto robots = spec.robots();
      const auto t0 = Clock::now();
      eng::ContactSweep sweep(std::move(robots), spec.metric, spec.options);
      const eng::SweepResult res = sweep.run();
      const double ms = seconds_since(t0) * 1e3;
      g_sink = g_sink + res.time;
      (spec.metric == eng::SweepMetric::kMinPairwise ? c : p) += ms;
    }
    contact_ms.push_back(c);
    allpairs_ms.push_back(p);
  }
  rep.metric("contact_sweep.contact.ms", median(contact_ms), "ms");
  rep.metric("contact_sweep.allpairs.ms", median(allpairs_ms), "ms");
  rep.metric("contact_sweep.evals_per_segment",
             static_cast<double>(gather_evals) /
                 static_cast<double>(gather_segments),
             "ratio");

  // Solver rows: every gather-fleet and search-ring sweep under each
  // solver, event times checked against the bisection oracle.
  const std::pair<const char*, eng::SolverChoice> solvers[] = {
      {"bisection", eng::SolverChoice::kBisection},
      {"analytic", eng::SolverChoice::kAnalytic},
      {"auto", eng::SolverChoice::kAuto}};
  std::ostringstream solver_json;
  solver_json << "{";
  std::uint64_t analytic_model_evals = 0;
  bool first = true;
  for (const auto& [name, choice] : solvers) {
    double gather_ms = 0.0, search_ms = 0.0, worst_dt = 0.0;
    std::uint64_t model_evals = 0, solver_evals = 0;
    for (std::size_t k = 0; k < all.size(); ++k) {
      auto robots = all[k]->robots();
      eng::SweepOptions o = all[k]->options;
      o.solver = choice;
      const auto t0 = Clock::now();
      eng::ContactSweep sweep(std::move(robots), all[k]->metric, o);
      const eng::SweepResult res = sweep.run();
      const double ms = seconds_since(t0) * 1e3;
      (all[k]->set == "gather-fleet" ? gather_ms : search_ms) += ms;
      model_evals += res.model_evals;
      solver_evals += res.evals;
      // Agreement with the oracle within the sweep tolerances: the
      // same event decision, and an event time within the bisection
      // bracket widened by the contact tolerance over the speeds.
      const double tol = 1e-6 * std::max(1.0, oracle[k].time);
      const bool agree = res.event == oracle[k].event &&
                         std::fabs(res.time - oracle[k].time) <= tol;
      if (res.event && oracle[k].event) {
        worst_dt = std::max(worst_dt, std::fabs(res.time - oracle[k].time));
      }
      rep.check(agree, std::string("solver ") + name + " disagrees with the "
                       "bisection oracle on " + all[k]->set + " " +
                       all[k]->label);
    }
    rep.metric(std::string("contact_sweep.solver.") + name + ".ms",
               gather_ms + search_ms, "ms");
    if (choice == eng::SolverChoice::kAnalytic) analytic_model_evals = model_evals;
    solver_json << (first ? "" : ", ") << json_string(name)
                << ": {\"gather_fleet_ms\": " << json_number(gather_ms)
                << ", \"search_ring_ms\": " << json_number(search_ms)
                << ", \"evals\": " << solver_evals
                << ", \"model_evals\": " << model_evals
                << ", \"worst_event_dt\": " << json_number(worst_dt) << "}";
    first = false;
  }
  solver_json << "}";
  rep.metric("contact_sweep.model_evals", static_cast<double>(analytic_model_evals),
             "count");
  rep.note("solvers", solver_json.str());
}

/// families: cell self-time per shipped set, and cache_key.
void probe_families(const Args& a, Report& rep) {
  std::vector<eng::WorkItem> every;
  std::ostringstream detail;
  detail << "{";
  for (const char* set : kSets) {
    const auto work = load_work(a.sets, set);
    every.insert(every.end(), work.begin(), work.end());
    std::vector<double> passes;
    for (int pass = 0; pass < 3; ++pass) {
      double acc = 0.0;
      const auto t0 = Clock::now();
      for (const eng::WorkItem& item : work) {
        switch (item.family) {
          case eng::Family::kRendezvous:
            acc += rv::rendezvous::run_scenario(item.scenario).sim.time;
            break;
          case eng::Family::kSearch:
            acc += eng::run_search_cell(item.search).worst_time;
            break;
          case eng::Family::kGather:
            acc += eng::run_gather_cell(item.gather).gathered.time;
            break;
          case eng::Family::kLinear:
            acc += eng::run_linear_cell(item.linear).sim.time;
            break;
          case eng::Family::kCoverage:
            acc += eng::run_coverage_cell(item.coverage).final_fraction;
            break;
        }
      }
      passes.push_back(seconds_since(t0) * 1e3);
      g_sink = g_sink + acc;
    }
    const std::string family = eng::family_name(work.front().family);
    rep.metric("families." + family + ".ms", median(passes), "ms");
    detail << (set == kSets[0] ? "" : ", ") << json_string(family)
           << ": {\"set\": " << json_string(set) << ", \"cells\": "
           << work.size() << "}";
  }
  detail << "}";
  rep.note("families", detail.str());

  std::uint64_t calls = 0;
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 0.1) {
    for (const eng::WorkItem& item : every) {
      const auto key = eng::cache_key(item);
      bytes += key ? key->size() : 0;
      ++calls;
    }
  }
  rep.metric("families.cache_key.us",
             seconds_since(t0) * 1e6 / static_cast<double>(calls), "us");
  g_sink = g_sink + static_cast<double>(bytes);
}

/// set_decl: parse and materialise each shipped body.
void probe_set_decl(const Args& a, Report& rep) {
  std::vector<std::string> bodies;
  for (const char* set : kSets) bodies.push_back(read_file(a.sets / (std::string(set) + ".rvset")));
  std::uint64_t parses = 0, materializations = 0;
  double parse_s = 0.0, materialize_s = 0.0;
  std::size_t items = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < 0.2) {
    for (const std::string& body : bodies) {
      const auto t0 = Clock::now();
      eng::SetDecl decl = eng::parse_set_decl(body);
      const auto t1 = Clock::now();
      const auto work = decl.set.materialize_work();
      const auto t2 = Clock::now();
      parse_s += std::chrono::duration<double>(t1 - t0).count();
      materialize_s += std::chrono::duration<double>(t2 - t1).count();
      items += work.size();
      ++parses;
      ++materializations;
    }
  }
  rep.metric("set_decl.parse.us", parse_s * 1e6 / static_cast<double>(parses), "us");
  rep.metric("set_decl.materialize.us",
             materialize_s * 1e6 / static_cast<double>(materializations), "us");
  g_sink = g_sink + static_cast<double>(items);
}

/// ns per lookup of every key of `cache` (hits, entry copied out).
double time_lookups(const eng::ScenarioCache& cache,
                    const std::vector<std::string>& keys) {
  eng::ScenarioCache::Entry entry;
  std::uint64_t calls = 0, found = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 0.1) {
    for (const std::string& key : keys) {
      found += cache.lookup(key, &entry) ? 1 : 0;
      ++calls;
    }
  }
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(calls);
  g_sink = g_sink + static_cast<double>(found);
  return ns;
}

/// ns per store of every entry into a fresh cache.
double time_stores(const std::vector<std::pair<std::string, eng::ScenarioCache::Entry>>& entries) {
  std::vector<double> per_call;
  for (int pass = 0; pass < 5; ++pass) {
    eng::ScenarioCache fresh;
    const auto t0 = Clock::now();
    for (const auto& [key, entry] : entries) (void)fresh.store(key, entry);
    per_call.push_back(seconds_since(t0) * 1e9 / static_cast<double>(entries.size()));
  }
  return median(per_call);
}

/// runner and cache_store: lookups/stores at both cache sizes, the
/// full-cache snapshot, emission, directory loads and saves.
void probe_runner_and_store(const Args& a, Report& rep) {
  eng::ScenarioCache small, large;
  std::vector<double> small_ms, large_ms;
  for (int pass = 0; pass < 5; ++pass) {
    eng::ScenarioCache s, l;
    auto t0 = Clock::now();
    (void)eng::load_cache_dir(a.small_cache, &s);
    small_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    (void)eng::load_cache_dir(a.large_cache, &l);
    large_ms.push_back(seconds_since(t0) * 1e3);
    if (pass == 0) {
      for (auto& [k, e] : s.snapshot()) small.store(k, e);
      for (auto& [k, e] : l.snapshot()) large.store(k, e);
    }
  }
  rep.metric("cache_store.load_dir.ms", median(small_ms), "ms");
  rep.metric("cache_store.load_dir.large.ms", median(large_ms), "ms");

  const auto small_entries = small.snapshot();
  const auto large_entries = large.snapshot();
  std::vector<std::string> small_keys, large_keys;
  for (const auto& [k, e] : small_entries) small_keys.push_back(k);
  for (const auto& [k, e] : large_entries) large_keys.push_back(k);
  rep.check(!small_keys.empty() && !large_keys.empty(),
            "cache directories loaded no entries");
  rep.metric("runner.cache_lookup.ns", time_lookups(small, small_keys), "ns");
  rep.metric("runner.cache_lookup.large.ns", time_lookups(large, large_keys), "ns");
  rep.metric("runner.cache_store.ns", time_stores(small_entries), "ns");
  rep.metric("runner.cache_store.large.ns", time_stores(large_entries), "ns");

  std::vector<double> snap_ms;
  for (int pass = 0; pass < 7; ++pass) {
    const auto t0 = Clock::now();
    const auto snap = large.snapshot();
    snap_ms.push_back(seconds_since(t0) * 1e3);
    g_sink = g_sink + static_cast<double>(snap.size());
  }
  rep.metric("runner.snapshot.ms", median(snap_ms), "ms");

  // Emission of the five shipped sets, replayed warm from the small
  // cache; the CSV bytes must equal the rv_batch pins.
  double csv_s = 0.0, json_s = 0.0;
  std::uint64_t emissions = 0, bytes = 0;
  for (const char* set : kSets) {
    const auto work = load_work(a.sets, set);
    eng::RunnerOptions ropts;
    ropts.threads = 1;
    ropts.cache = &small;
    const eng::ResultSet results = eng::run_scenarios(work, ropts);
    rep.check(results.cache_stats().misses == 0,
              std::string(set) + ": shipped-set cache was not warm");
    const std::string csv = results.to_csv();
    const std::string json = results.to_json();
    rep.check(csv == read_file(a.golden / "rv_batch" / (std::string(set) + ".csv")),
              std::string(set) + ": emitted CSV differs from its pin");
    bytes += csv.size() + json.size();
    const auto start = Clock::now();
    std::uint64_t reps = 0;
    while (seconds_since(start) < 0.04) {
      auto t0 = Clock::now();
      const std::string c = results.to_csv();
      auto t1 = Clock::now();
      const std::string j = results.to_json();
      auto t2 = Clock::now();
      csv_s += std::chrono::duration<double>(t1 - t0).count();
      json_s += std::chrono::duration<double>(t2 - t1).count();
      g_sink = g_sink + static_cast<double>(c.size() + j.size());
      ++reps;
    }
    emissions += reps;
  }
  rep.metric("runner.emit_csv.us", csv_s * 1e6 / static_cast<double>(emissions), "us");
  rep.metric("runner.emit_json.us", json_s * 1e6 / static_cast<double>(emissions), "us");
  rep.metric("runner.bytes_emitted", static_cast<double>(bytes), "count");

  // cache_store.save: the large (serve-cold-mix working set) cache.
  const fs::path out = a.scratch / "save.rvcache";
  std::vector<double> save_ms;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    eng::save_cache_file(out, large);
    save_ms.push_back(seconds_since(t0) * 1e3);
  }
  rep.metric("cache_store.save.ms", median(save_ms), "ms");
  rep.metric("cache_store.file_bytes", static_cast<double>(fs::file_size(out)), "count");
  std::ostringstream sizes;
  sizes << "{\"small_entries\": " << small.size()
        << ", \"large_entries\": " << large.size() << "}";
  rep.note("cache_sizes", sizes.str());
}

std::string run_header(const std::string& id, std::size_t body_bytes) {
  return "{\"op\":\"run\",\"id\":\"" + id + "\",\"body_bytes\":" +
         std::to_string(body_bytes) + ",\"format\":\"csv\"}";
}

/// The payload of a framed ok reply, or nullopt.
std::optional<std::string> ok_payload(const std::string& frame) {
  if (frame.rfind("{\"reply\":\"ok\"", 0) != 0) return std::nullopt;
  const std::size_t lf = frame.find('\n');
  if (lf == std::string::npos || frame.size() < lf + 2) return std::nullopt;
  return frame.substr(lf + 1, frame.size() - lf - 2);
}

/// shard: forked dispatch cost and supervisor attempts; serve: the
/// in-process warm-hit cost.
void probe_shard_and_serve(const Args& a, Report& rep) {
  const std::string body = read_file(a.fork_body);
  const std::string header = run_header("f", body.size());
  std::vector<double> ms[2];
  std::string payloads[2];
  for (int rep_i = 0; rep_i < 9; ++rep_i) {
    for (int p = 0; p < 2; ++p) {
      const fs::path dir = a.scratch / ("fork-" + std::to_string(rep_i) + "-" +
                                        std::to_string(p + 1));
      fs::remove_all(dir);
      fs::create_directories(dir);
      eng::serve::Options opts;
      opts.procs = static_cast<std::size_t>(p + 1);
      opts.threads = 1;
      opts.cache_dir = dir;
      eng::serve::Service service(std::move(opts));
      const auto t0 = Clock::now();
      const std::string reply = service.process(header, body);
      ms[p].push_back(seconds_since(t0) * 1e3);
      const auto payload = ok_payload(reply);
      rep.check(payload.has_value(), "forked dispatch reply is not ok");
      if (payload) {
        if (payloads[p].empty()) payloads[p] = *payload;
        rep.check(*payload == payloads[p], "dispatch payload changed between runs");
      }
    }
  }
  rep.check(payloads[0] == payloads[1],
            "procs=2 payload differs from procs=1 payload");
  rep.metric("shard.fork_dispatch.ms", median(ms[1]) - median(ms[0]), "ms");
  std::ostringstream fork;
  fork << "{\"body\": " << json_string(a.fork_body.filename().string())
       << ", \"procs1_ms\": "
       << json_number(median(ms[0])) << ", \"procs2_ms\": "
       << json_number(median(ms[1])) << ", \"samples\": " << ms[0].size() << "}";
  rep.note("fork_dispatch", fork.str());

  // Supervisor attempts of a fault-free two-shard run.
  const auto work = load_work(a.sets, "rendezvous-grid");
  const eng::SupervisorReport report = eng::supervise_shards(
      2, [&](std::size_t shard) {
        const eng::ShardPlan plan = eng::shard_plan(work.size(), shard, 2);
        eng::RunnerOptions ropts;
        ropts.threads = 1;
        (void)eng::run_shard(work, plan, ropts);
        return 0;
      });
  std::uint64_t attempts = 0;
  for (const auto& status : report.shards) attempts += status.attempts.size();
  rep.check(report.complete(), "fault-free supervised shards did not complete");
  rep.metric("shard.attempts", static_cast<double>(attempts), "count");

  // serve.process: in-process warm hits of the five shipped bodies.
  eng::serve::Options opts;
  opts.threads = 1;
  eng::serve::Service service(std::move(opts));
  std::vector<std::string> bodies;
  for (const char* set : kSets) {
    bodies.push_back(read_file(a.sets / (std::string(set) + ".rvset")));
    (void)service.process(run_header("warm", bodies.back().size()), bodies.back());
  }
  std::vector<double> us;
  const auto start = Clock::now();
  std::size_t i = 0;
  while (seconds_since(start) < 1.0 || us.size() < 2000) {
    const std::string& b = bodies[i % bodies.size()];
    const std::string h = run_header("p", b.size());
    const auto t0 = Clock::now();
    const std::string reply = service.process(h, b);
    us.push_back(seconds_since(t0) * 1e6);
    if (i < bodies.size()) {
      const auto payload = ok_payload(reply);
      rep.check(payload && *payload == read_file(a.golden / "rv_batch" /
                                                 (std::string(kSets[i]) + ".csv")),
                std::string(kSets[i]) + ": in-process serve payload differs from its pin");
    }
    ++i;
  }
  rep.metric("serve.process.us", median(us), "us");
  rep.note("serve_process", "{\"samples\": " + std::to_string(us.size()) + "}");
}

int cmd_layers(const Args& a) {
  fs::create_directories(a.scratch);
  Report rep;
  probe_sweeps(a, rep);
  probe_families(a, rep);
  probe_set_decl(a, rep);
  probe_runner_and_store(a, rep);
  probe_shard_and_serve(a, rep);
  rep.print(std::cout);
  return 0;
}

/// Hex cache key of every work item of a declaration, one per line.
int cmd_keys(const fs::path& file) {
  const auto work = eng::parse_set_decl_file(file).set.materialize_work();
  for (const eng::WorkItem& item : work) {
    const auto key = eng::cache_key(item);
    if (!key) {
      std::cout << "uncacheable\n";
      continue;
    }
    static const char* hex = "0123456789abcdef";
    std::string out;
    for (const unsigned char c : *key) {
      out += hex[c >> 4];
      out += hex[c & 15];
    }
    std::cout << out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 2 && args[0] == "keys") return cmd_keys(args[1]);
    if (!args.empty() && args[0] == "layers") {
      Args a;
      std::map<std::string, fs::path*> flags = {
          {"--sets", &a.sets},
          {"--golden", &a.golden},
          {"--small-cache", &a.small_cache},
          {"--large-cache", &a.large_cache},
          {"--fork-body", &a.fork_body},
          {"--scratch", &a.scratch}};
      for (std::size_t i = 1; i + 1 < args.size(); i += 2) {
        const auto it = flags.find(args[i]);
        if (it == flags.end()) throw std::invalid_argument("unknown flag " + args[i]);
        *it->second = args[i + 1];
      }
      for (const auto& [flag, path] : flags) {
        if (path->empty()) throw std::invalid_argument("missing " + flag);
      }
      return cmd_layers(a);
    }
    std::cerr << "usage: layer_probe layers --sets DIR --golden DIR "
                 "--small-cache DIR --large-cache DIR --fork-body FILE "
                 "--scratch DIR\n"
                 "       layer_probe keys FILE.rvset\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "layer_probe: " << e.what() << "\n";
    return 2;
  }
}
