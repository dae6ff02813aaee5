// E10 — micro-benchmarks of the substrate (google-benchmark): segment
// evaluation, frame mapping, emitter throughput, contact sweeps,
// coverage rasterisation, Lambert W, schedule algebra, ResultSet
// emission.  These quantify the simulator cost model used to size the
// E1-E9 experiments.

#include <benchmark/benchmark.h>

#include "mathx/constants.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/contact_sweep.hpp"
#include "engine/families.hpp"
#include "engine/metric_kernel.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "engine/set_registry.hpp"
#include "geom/difference_map.hpp"
#include "mathx/lambert_w.hpp"
#include "rendezvous/algorithm7.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/schedule.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/emitter.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"

namespace {

using rv::geom::RobotAttributes;
using rv::geom::Vec2;

void BM_SegmentEvalLine(benchmark::State& state) {
  const rv::traj::Segment seg = rv::traj::LineSeg{{0.0, 0.0}, {3.0, 4.0}};
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    if (t > 5.0) t = 0.0;
    benchmark::DoNotOptimize(rv::traj::position_at(seg, t));
  }
}
BENCHMARK(BM_SegmentEvalLine);

void BM_SegmentEvalArc(benchmark::State& state) {
  const rv::traj::Segment seg =
      rv::traj::ArcSeg{{0.0, 0.0}, 2.0, 0.0, rv::mathx::kTwoPi};
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    if (t > 12.0) t = 0.0;
    benchmark::DoNotOptimize(rv::traj::position_at(seg, t));
  }
}
BENCHMARK(BM_SegmentEvalArc);

void BM_FrameTransformSegment(benchmark::State& state) {
  RobotAttributes attrs;
  attrs.speed = 1.5;
  attrs.time_unit = 0.7;
  attrs.orientation = 1.2;
  attrs.chirality = -1;
  const rv::traj::Segment seg =
      rv::traj::ArcSeg{{1.0, 2.0}, 0.5, 0.3, rv::mathx::kPi};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rv::traj::to_global_geometry(seg, attrs, {3.0, 4.0}));
  }
}
BENCHMARK(BM_FrameTransformSegment);

void BM_SearchRoundEmitter(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rv::search::SearchRoundEmitter emitter(k);
    std::uint64_t n = 0;
    while (!emitter.done()) {
      benchmark::DoNotOptimize(emitter.next());
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              rv::search::SearchRoundEmitter(k)
                                  .total_segments()));
}
BENCHMARK(BM_SearchRoundEmitter)->Arg(3)->Arg(5)->Arg(7);

void BM_Algorithm7Emission(benchmark::State& state) {
  for (auto _ : state) {
    rv::rendezvous::RendezvousProgram prog;
    for (int i = 0; i < 10000; ++i) {
      benchmark::DoNotOptimize(prog.next());
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Algorithm7Emission);

// E5's path: the same pull with a MarkRecorder attached, so the program
// also advances the local clock that stamps the phase marks.
void BM_Algorithm7EmissionRecorded(benchmark::State& state) {
  for (auto _ : state) {
    rv::traj::MarkRecorder rec;
    rv::rendezvous::RendezvousProgram prog(&rec);
    for (int i = 0; i < 10000; ++i) {
      benchmark::DoNotOptimize(prog.next());
    }
    benchmark::DoNotOptimize(rec.marks().size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Algorithm7EmissionRecorded);

void BM_ContactSweepSearch(benchmark::State& state) {
  for (auto _ : state) {
    rv::sim::SimOptions opts;
    opts.visibility = 0.25;
    opts.max_time = 1e5;
    const auto res = rv::sim::simulate_search(
        rv::search::make_search_program(), {1.3, 0.9}, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_ContactSweepSearch);

// A ring fleet with deterministic radial jitter — the gather family's
// layout, minus the exact regular-polygon symmetry that would make
// *every* antipodal pair tie for the diameter (an adversarial
// tie-resolution stress, not the generic case).
std::vector<Vec2> jittered_ring(int n) {
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double jitter =
        static_cast<double>((s >> 11) % 1024) / 1024.0 * 0.05;
    pts.push_back(
        rv::geom::polar(1.0 + jitter, rv::mathx::kTwoPi * i / n));
  }
  return pts;
}

// Shared driver of the n-robot gathering sweep benchmarks: n identical
// robots on a jittered unit ring all running the square-spiral
// trajectory, max-pairwise metric, swept with the requested kernel.
// The construction pins the measured work to the metric kernel: an
// identical fleet keeps every pairwise distance constant (the metric
// never events and the certified step is a fixed (m − r)/L),
// continuous line-based motion keeps L = 2 with cheap per-robot
// position evaluation and few segments — so the sweep performs the
// same capped eval count at every fleet size and both kernels are
// timed at identical eval counts.  (Algorithm 7 fleets are mostly
// *passive*: their sweeps window-jump through the long common waits
// in a dozen evaluations, measuring segment streaming instead of the
// kernel; arc-heavy Algorithm 4 fleets spend the time in per-robot
// trig.)
void run_gather_sweep_bench(benchmark::State& state, int n,
                            rv::engine::KernelChoice kernel,
                            rv::engine::SolverChoice solver =
                                rv::engine::SolverChoice::kBisection) {
  const std::vector<Vec2> origins = jittered_ring(n);
  std::uint64_t evals = 0;
  for (auto _ : state) {
    std::vector<rv::engine::RobotSpec> robots;
    robots.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      robots.push_back({rv::search::make_square_spiral_baseline(),
                        RobotAttributes{}, origins[static_cast<std::size_t>(i)]});
    }
    rv::engine::SweepOptions opts;
    // r at 95% of the *base* ring diameter (a lower bound on the
    // jittered fleet's constant diameter): the certified step
    // (m − r)/L stays small at every n, so the sweep spends its time
    // in metric evaluations rather than segment streaming.
    const double diam =
        2.0 * std::sin(rv::mathx::kPi * static_cast<double>(n / 2) / n);
    opts.visibility = 0.95 * diam;
    opts.max_time = 100.0;
    opts.kernel = kernel;
    opts.solver = solver;
    opts.max_evals = 2000;
    rv::engine::ContactSweep sweep(std::move(robots),
                                   rv::engine::SweepMetric::kMaxPairwise,
                                   opts);
    const auto res = sweep.run();
    evals += res.evals;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evals) * n * (n - 1) / 2);
}

void BM_ContactSweepGather(benchmark::State& state) {
  // The adaptive kernel (brute force below the cutover, convex hull +
  // rotating calipers above): the speedup curve over
  // BM_ContactSweepGatherBrute lands in BENCH_engine.json.
  run_gather_sweep_bench(state, static_cast<int>(state.range(0)),
                         rv::engine::KernelChoice::kAuto);
}
BENCHMARK(BM_ContactSweepGather)
    ->Arg(3)
    ->Arg(6)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(250)
    ->Arg(1000);

void BM_ContactSweepGatherBrute(benchmark::State& state) {
  // The forced O(n²) squared-distance loop at the same fleet sizes —
  // the baseline the adaptive kernel is measured against.
  run_gather_sweep_bench(state, static_cast<int>(state.range(0)),
                         rv::engine::KernelChoice::kBruteForce);
}
BENCHMARK(BM_ContactSweepGatherBrute)->Arg(50)->Arg(100)->Arg(250);

// The shipped gather-fleet set's "mixed quartet" cell: four Algorithm 7
// robots with distinct hidden speeds and clocks on the unit origin
// ring, swept all-pairs (max-pairwise metric, the default bisection
// solver) as the batch runner does — but to t = 1e4 instead of the
// set's 2e5, so an iteration takes a couple of milliseconds.  Unlike the
// synthetic fleets above, nearly every evaluation here lands on a new
// segment: the measured cost is segment streaming, frame mapping and
// per-window slot updates, the hot path of a cold gather-fleet run.
void BM_ContactSweepGatherFleet(benchmark::State& state) {
  rv::engine::GatherCell cell;
  for (const rv::engine::WorkItem& item :
       rv::engine::builtin_set("gather-fleet").set.materialize_work()) {
    if (item.label == "mixed quartet") cell = item.gather;
  }
  if (cell.fleet.size() != 4) {
    state.SkipWithError("gather-fleet: no 4-robot 'mixed quartet' cell");
    return;
  }
  const auto factory = rv::rendezvous::program_factory(cell.algorithm);
  std::uint64_t segments = 0;
  for (auto _ : state) {
    std::vector<rv::engine::RobotSpec> robots;
    for (std::size_t i = 0; i < cell.fleet.size(); ++i) {
      robots.push_back(
          {factory(), cell.fleet[i], rv::engine::gather_origin(cell, i)});
    }
    rv::engine::SweepOptions opts;
    opts.visibility = cell.visibility;
    opts.max_time = 1e4;
    rv::engine::ContactSweep sweep(std::move(robots),
                                   rv::engine::SweepMetric::kMaxPairwise,
                                   opts);
    const auto res = sweep.run();
    segments += res.segments;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}
BENCHMARK(BM_ContactSweepGatherFleet);

// The coverage family's swept-area rasteriser on the cells the paper
// binaries and the shipped set run: argument 0 is X3's Algorithm 4 cell
// (R = 2, r = 0.1, grid cell 0.02, 48 checkpoints, horizon four times
// the guaranteed-round time), 1–3 are the `coverage-disk` set's cells
// (Algorithm 4, concentric, square spiral at R = 1.5, r = 0.1, cell
// 0.05).  One iteration is one `run_coverage_cell`, as the batch
// runner calls it.  Five repetitions, reported as aggregates: gate on
// the `_median` rows, which one slow repetition does not move.
void BM_MeasureCoverage(benchmark::State& state) {
  std::vector<rv::engine::CoverageCell> cells;
  rv::engine::CoverageCell x3;
  x3.program = rv::engine::SearchProgram::kAlgorithm4;
  x3.disk_radius = 2.0;
  x3.visibility = 0.1;
  x3.cell = 0.02;
  x3.checkpoints = 48;
  x3.horizon = 4.0 * rv::search::time_first_rounds(
                         rv::search::guaranteed_round(2.0, 0.1));
  cells.push_back(x3);
  for (const rv::engine::WorkItem& item :
       rv::engine::builtin_set("coverage-disk").set.materialize_work()) {
    cells.push_back(item.coverage);
  }
  const auto index = static_cast<std::size_t>(state.range(0));
  if (cells.size() != 4 || index >= cells.size()) {
    state.SkipWithError("coverage-disk: expected three cells");
    return;
  }
  for (auto _ : state) {
    const rv::engine::CoverageOutcome out =
        rv::engine::run_coverage_cell(cells[index]);
    benchmark::DoNotOptimize(out.final_fraction);
  }
}
BENCHMARK(BM_MeasureCoverage)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMicrosecond)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// Event solvers head to head on the same gather workload: the
// Lipschitz stepper burns its eval budget inching toward the constant
// diameter, while the analytic solver proves each window clear from
// the extremal pair's closed-form model and jumps window to window —
// the evals ratio is SweepResult::evals ≥ 5× (pinned by
// tests/test_event_solver.cpp), and the wall-time ratio lands in
// BENCH_engine.json per fleet size.
void BM_EventSolverBisect(benchmark::State& state) {
  run_gather_sweep_bench(state, static_cast<int>(state.range(0)),
                         rv::engine::KernelChoice::kAuto,
                         rv::engine::SolverChoice::kBisection);
}
void BM_EventSolverAnalytic(benchmark::State& state) {
  run_gather_sweep_bench(state, static_cast<int>(state.range(0)),
                         rv::engine::KernelChoice::kAuto,
                         rv::engine::SolverChoice::kAnalytic);
}
BENCHMARK(BM_EventSolverBisect)->Arg(3)->Arg(10)->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK(BM_EventSolverAnalytic)
    ->Arg(3)
    ->Arg(10)
    ->Arg(50)
    ->Arg(250)
    ->Arg(1000);

// The SoA batched position evaluator on the gather fleet's current
// segments: one switch-driven pass over n robots per query versus the
// per-robot variant dispatch it replaced inside the sweep.
void BM_BatchedPositions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Vec2> origins = jittered_ring(n);
  std::vector<rv::traj::TimedSegment> segs;
  segs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rv::traj::GlobalSegmentStream stream(
        rv::search::make_square_spiral_baseline(), RobotAttributes{},
        origins[static_cast<std::size_t>(i)]);
    segs.push_back(stream.next());
  }
  rv::traj::BatchedPositions batch;
  batch.assemble(segs);
  std::vector<Vec2> out(static_cast<std::size_t>(n));
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-4;
    if (t > 1.0) t = 0.0;
    batch.positions(t, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchedPositions)->Arg(3)->Arg(50)->Arg(250)->Arg(1000);

// Metric kernels head to head on the jittered ring (the gather
// family's layout): brute-force O(n²) vs grid closest-pair / calipers
// diameter.
void run_metric_kernel_bench(benchmark::State& state, bool min_metric,
                             rv::engine::KernelChoice kernel) {
  const auto pts = jittered_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_metric
                                 ? rv::engine::min_pairwise(pts, kernel)
                                 : rv::engine::max_pairwise(pts, kernel));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MetricKernelMinBrute(benchmark::State& state) {
  run_metric_kernel_bench(state, true, rv::engine::KernelChoice::kBruteForce);
}
void BM_MetricKernelMinGrid(benchmark::State& state) {
  run_metric_kernel_bench(state, true, rv::engine::KernelChoice::kGeometric);
}
void BM_MetricKernelMaxBrute(benchmark::State& state) {
  run_metric_kernel_bench(state, false,
                          rv::engine::KernelChoice::kBruteForce);
}
void BM_MetricKernelMaxCalipers(benchmark::State& state) {
  run_metric_kernel_bench(state, false,
                          rv::engine::KernelChoice::kGeometric);
}
BENCHMARK(BM_MetricKernelMinBrute)->Arg(16)->Arg(48)->Arg(250)->Arg(1000);
BENCHMARK(BM_MetricKernelMinGrid)->Arg(16)->Arg(48)->Arg(250)->Arg(1000);
BENCHMARK(BM_MetricKernelMaxBrute)->Arg(16)->Arg(48)->Arg(250)->Arg(1000);
BENCHMARK(BM_MetricKernelMaxCalipers)->Arg(16)->Arg(48)->Arg(250)->Arg(1000);

void BM_LambertW0(benchmark::State& state) {
  double x = 0.5;
  for (auto _ : state) {
    x = x < 1e6 ? x * 1.7 : 0.5;
    benchmark::DoNotOptimize(rv::mathx::lambert_w0(x));
  }
}
BENCHMARK(BM_LambertW0);

void BM_DifferenceFactorisation(benchmark::State& state) {
  double phi = 0.1;
  for (auto _ : state) {
    phi += 0.37;
    if (phi > 6.0) phi = 0.1;
    benchmark::DoNotOptimize(
        rv::geom::factor_difference_matrix(1.7, phi, -1));
  }
}
BENCHMARK(BM_DifferenceFactorisation);

void BM_EngineScenarioSweep(benchmark::State& state) {
  // A 16-cell attribute grid through the batch engine; the argument is
  // the worker-thread count, so the timings expose the sweep's
  // parallel scaling (CSV output is identical at every thread count).
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    rv::engine::ScenarioSet set;
    set.speeds({0.5, 1.0, 2.0, 4.0})
        .time_units({0.5, 0.75})
        .chiralities({1, -1})
        .visibility(0.25)
        .algorithm(rv::rendezvous::AlgorithmChoice::kAlgorithm7)
        .max_time(2e3);
    rv::engine::RunnerOptions opts;
    opts.threads = threads;
    benchmark::DoNotOptimize(rv::engine::run_scenarios(set, opts));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EngineScenarioSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ResultSet emission of the largest shipped document: `rendezvous-grid`
// replayed warm from a cache (as a warm rv_serve hit replays it), then
// rendered as CSV or JSON once per iteration.  The replay runs once per
// process; the timed loop is emission only.  Five repetitions, reported
// as aggregates: compare the `_median` rows.
const rv::engine::ResultSet& warm_rendezvous_grid() {
  static const rv::engine::ResultSet warm = [] {
    const rv::engine::ScenarioSet& set =
        rv::engine::builtin_set("rendezvous-grid").set;
    rv::engine::ScenarioCache cache;
    rv::engine::RunnerOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    (void)rv::engine::run_scenarios(set, opts);
    return rv::engine::run_scenarios(set, opts);
  }();
  return warm;
}

void BM_ResultSetRender(benchmark::State& state, const char* format) {
  const rv::engine::ResultSet& warm = warm_rendezvous_grid();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = warm.render(format);
    bytes += static_cast<std::int64_t>(doc.size());
    benchmark::DoNotOptimize(doc.data());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK_CAPTURE(BM_ResultSetRender, csv, "csv")
    ->Unit(benchmark::kMicrosecond)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);
BENCHMARK_CAPTURE(BM_ResultSetRender, json, "json")
    ->Unit(benchmark::kMicrosecond)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_RoundBound(benchmark::State& state) {
  double tau = 0.5;
  for (auto _ : state) {
    tau += 0.013;
    if (tau >= 0.99) tau = 0.31;
    benchmark::DoNotOptimize(rv::rendezvous::rendezvous_round_bound(tau, 6));
  }
}
BENCHMARK(BM_RoundBound);

}  // namespace

int main(int argc, char** argv) {
  // Benchmarks of an unoptimized build measure the compiler, not the
  // library: shout about it on stderr and tag the JSON context so
  // BENCH_engine.json snapshots are self-describing (CI builds the
  // smoke with CMAKE_BUILD_TYPE=Release; see .github/workflows/ci.yml).
  // Note on the stock "library_build_type" context field: it reports
  // how the google-benchmark *library* was compiled (the system
  // package often says "debug"), not this binary.  rv_optimized_build
  // is the authoritative flag for whether the recorded timings
  // measure optimized library code — tools/bench_diff gates on it
  // (--require-optimized).
#if defined(__OPTIMIZE__)
  benchmark::AddCustomContext("rv_optimized_build", "true");
#else
  std::fprintf(stderr,
               "========================================================\n"
               "WARNING: bench_micro was compiled WITHOUT optimization.\n"
               "Timings below measure the debug build, not the library.\n"
               "Rebuild with -DCMAKE_BUILD_TYPE=Release before recording\n"
               "BENCH_engine.json.\n"
               "========================================================\n");
  benchmark::AddCustomContext("rv_optimized_build", "false");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
