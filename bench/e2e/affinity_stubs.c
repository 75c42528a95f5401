/* CPU placement for hubbench: which CPUs this process may run on, and
   pinning a process to one of them (Linux sched_{get,set}affinity). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs this process may run on, ascending. */
value hubbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc_small(2, Tag_cons);
        Field(cell, 0) = Val_int(cpu);
        Field(cell, 1) = list;
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* Pin process [pid] (0 = this one) to [cpu]; false on failure. */
value hubbench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}
