/* Allocation-free CLOCK_MONOTONIC reading for the benchmark's timers.
 *
 * The traced run reads the clock twice per guest event; a boxed float per
 * reading would make the timers themselves a large part of what they
 * measure. CLOCK_MONOTONIC is also what Python's time.monotonic_ns reads,
 * so a time taken here can be subtracted from one taken by run.py.
 */
#include <caml/mlvalues.h>
#include <time.h>

intnat perfbench_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_clock_ns_byte(value unit)
{
  return Val_long(perfbench_clock_ns(unit));
}
