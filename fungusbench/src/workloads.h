// The two workloads. Each fills `report` with its checks, operation
// counts and metrics (per-layer ones too when `tracer` is enabled) and
// returns 0, or nonzero when it could not run at all.

#ifndef FUNGUSBENCH_WORKLOADS_H_
#define FUNGUSBENCH_WORKLOADS_H_

#include "bench.h"

namespace fungusbench {

/// Client connections (one thread each) of serve_read.
constexpr int kClients = 4;

int RunServeRead(const Args& args, Tracer& tracer, Report& report);
int RunRotCycle(const Args& args, Tracer& tracer, Report& report);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_WORKLOADS_H_
