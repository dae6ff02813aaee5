// calibrate: the fixed reference workload the benchmark scales by.
//
// On a shared machine the speed of the whole host drifts by 15-30% over
// minutes (other tenants, CPU steal), and every timing of one run moves
// with it.  run.py times this program three times per reproduce pass,
// next to the cold gather-fleet runs, and once after each set-up, and
// scales those timings by (nominal reference time / measured reference
// time).  The program does not link the engine, so no change to the
// repository's code moves it.
//
// The work is the shape of the engine's hot loop: four points on
// circles, evaluated with sin/cos, and the closest pair by hypot.  It
// prints a checksum so run.py can check that it ran to completion.

#include <cmath>
#include <cstdio>

int main() {
  const double speed[4] = {1.0, 1.5, 0.75, 2.0};
  double x[4] = {};
  double y[4] = {};
  double sum = 0.0;
  for (int i = 0; i < 600000; ++i) {
    const double t = i * 1e-3;
    for (int k = 0; k < 4; ++k) {
      x[k] = std::cos(speed[k] * t + k) * (1.0 + 0.1 * k);
      y[k] = std::sin(speed[k] * t + k) * (1.0 + 0.1 * k);
    }
    double closest = 1e300;
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        closest = std::fmin(closest, std::hypot(x[a] - x[b], y[a] - y[b]));
      }
    }
    sum += closest;
  }
  std::printf("%.6f\n", sum);
  return 0;
}
