/* wait4(2) with the child's resource usage: OCaml's Unix library has
   waitpid but no per-child rusage, which the benchmark needs for the
   CPU time and peak resident memory of each reaped program run. And
   the CPU clock of a live process, for the CPU time of one served
   request, and CPU affinity, to keep a daemon on the CPU the harness
   calibrates. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <time.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* returns (exit_code, cpu_seconds, maxrss_kib); exit_code is
   -signal for a child killed by a signal */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = Int_val(vpid);
  for (;;) {
    caml_enter_blocking_section();
    r = wait4(pid, &status, 0, &ru);
    caml_leave_blocking_section();
    if (r >= 0 || errno != EINTR) break;
    /* let an OCaml signal handler (e.g. SIGTERM -> exit) run */
    caml_process_pending_actions();
  }
  if (r < 0) caml_failwith("wait4 failed");
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status) : -1000;
  double cpu = (double)ru.ru_utime.tv_sec + 1e-6 * (double)ru.ru_utime.tv_usec
             + (double)ru.ru_stime.tv_sec + 1e-6 * (double)ru.ru_stime.tv_usec;
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, caml_copy_double(cpu));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* user + system CPU seconds of a live process, all its threads, read
   from its CPU-time clock (nanosecond resolution, where /proc/<pid>/stat
   counts 10 ms ticks) */
value perfbench_process_cpu(value vpid)
{
  CAMLparam1(vpid);
  clockid_t clk;
  struct timespec ts;
  if (clock_getcpuclockid(Int_val(vpid), &clk) != 0)
    caml_failwith("clock_getcpuclockid failed");
  if (clock_gettime(clk, &ts) != 0) caml_failwith("clock_gettime failed");
  CAMLreturn(caml_copy_double((double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec));
}

/* pin the calling thread, and the processes it spawns from now on, to
   the CPU it is running on; returns that CPU */
value perfbench_pin_here(value unit)
{
  CAMLparam1(unit);
  cpu_set_t set;
  int cpu = sched_getcpu();
  if (cpu < 0) caml_failwith("sched_getcpu failed");
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity failed");
  CAMLreturn(Val_int(cpu));
}
