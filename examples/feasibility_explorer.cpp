// feasibility_explorer — walks the attribute space of Theorem 4 and
// prints, for each (v, tau, phi, chi) cell, the theory verdict and a
// quick simulation outcome.  Useful to get intuition for *why* the
// three feasible families break symmetry and the two infeasible ones
// cannot.
//
// The grid is a declarative `engine::ScenarioSet`; the simulations fan
// out across cores through `engine::run_scenarios`.
//
//   $ ./feasibility_explorer [--quick] [--horizon 2e4] [--threads 0]

#include <cmath>
#include <iostream>
#include <vector>

#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "geom/difference_map.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/feasibility.hpp"

int main(int argc, char** argv) {
  using namespace rv;
  using rendezvous::FeasibilityClass;

  io::Args args;
  args.declare_bool("quick", "skip the simulations, print theory only");
  args.declare_double("horizon", 2e4, "simulation horizon per cell");
  args.declare_int("threads", 0, "worker threads (0 = all cores)");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << args.usage("feasibility_explorer");
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage("feasibility_explorer");
    return 0;
  }
  const bool quick = args.get_bool("quick");
  const double horizon = args.get_double("horizon");

  std::cout
      << "Theorem 4: rendezvous is feasible iff\n"
      << "    tau != 1   OR   v != 1   OR   (chi = +1 AND 0 < phi < 2pi)\n\n";

  // The whole experiment as data: four attribute axes, one base cell.
  engine::ScenarioSet set;
  set.speeds({0.5, 1.0, 2.0})
      .time_units({0.5, 1.0})
      .orientations({0.0, mathx::kPi / 2.0})
      .chiralities({1, -1})
      .offsets({{1.0, 0.3}})
      .visibility(0.25)
      .algorithm(rendezvous::AlgorithmChoice::kAlgorithm7)
      .max_time(horizon);
  const std::vector<engine::WorkItem> cells = set.materialize_work();

  // Theory-only mode never simulates; otherwise the runner fans the
  // grid out across cores.
  engine::ResultSet results;
  if (!quick) {
    engine::RunnerOptions ropts;
    ropts.threads = static_cast<unsigned>(args.get_int("threads"));
    results = engine::run_scenarios(cells, ropts);
  }

  io::Table table({"v", "tau", "phi", "chi", "verdict", "why",
                   quick ? "mu / det" : "simulated"});
  int feasible_cells = 0, infeasible_cells = 0;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const geom::RobotAttributes& a = cells[i].scenario.attrs;
    const auto cls = rendezvous::classify(a);
    const bool ok = rendezvous::is_feasible(cls);
    (ok ? feasible_cells : infeasible_cells)++;

    std::string last;
    if (quick) {
      last = a.time_unit == 1.0
                 ? "det=" + io::format_fixed(
                                geom::difference_determinant(
                                    a.speed, a.orientation, a.chirality),
                                3)
                 : "-";
    } else {
      const auto& sim = results[i].outcome.sim;
      last = sim.met ? "met t=" + io::format_fixed(sim.time, 1)
                     : "no meet (min sep " +
                           io::format_fixed(sim.min_distance, 3) + ")";
    }

    std::string why;
    switch (cls) {
      case FeasibilityClass::kDifferentClocks: why = "clocks"; break;
      case FeasibilityClass::kDifferentSpeeds: why = "speeds"; break;
      case FeasibilityClass::kOrientationOnly: why = "compass"; break;
      case FeasibilityClass::kInfeasibleIdentical:
        why = "identical";
        break;
      case FeasibilityClass::kInfeasibleMirror: why = "mirror"; break;
    }
    table.add_row({io::format_fixed(a.speed, 1),
                   io::format_fixed(a.time_unit, 1),
                   io::format_fixed(a.orientation, 2),
                   std::to_string(a.chirality),
                   ok ? "feasible" : "INFEASIBLE", why, last});
  }

  table.print(std::cout, "attribute grid (d = |(1, 0.3)|, r = 0.25):");
  std::cout << '\n'
            << feasible_cells << " feasible cells, " << infeasible_cells
            << " infeasible cells.\n"
            << "note: infeasible cells can never be *observed* to fail in "
               "finite time — the verdict is structural (Theorem 4; see the "
               "separation certificates in bench_e8_feasibility).\n";
  return 0;
}
