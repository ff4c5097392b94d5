// fungusbench: one FungusDB workload, run for a fixed time from a seed,
// with every answer checked; prints its metrics and, as the last line of
// stdout, one JSON result. See README.md.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using fungusbench::Args;
using fungusbench::Perturb;

constexpr char kUsage[] =
    "usage: fungusbench --workload serve_read|rot_cycle "
    "--seed N --seconds S --trace 0|1 [--tiny] "
    "[--perturb count|group_key|conservation|event_conservation] "
    "[--work-dir DIR]\n";

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--perturb") {
      if (value == "count") {
        args.perturb = Perturb::kCount;
      } else if (value == "group_key") {
        args.perturb = Perturb::kGroupKey;
      } else if (value == "conservation") {
        args.perturb = Perturb::kConservation;
      } else if (value == "event_conservation") {
        args.perturb = Perturb::kEventConservation;
      } else {
        return false;
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return args.workload == "serve_read" || args.workload == "rot_cycle";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << kUsage;
    return 2;
  }
  const bool serve = args.workload == "serve_read";
  // The load comes from this one process; more client threads than CPUs
  // would measure the scheduler, not the program.
  const int threads = serve ? fungusbench::kClients : 1;
  const int cpus = fungusbench::AvailableCpus();
  if (threads > cpus) {
    std::cerr << "fungusbench: refusing to start " << threads
              << " client threads on " << cpus << " CPUs (nproc)\n";
    return 3;
  }
  fungusbench::Tracer tracer(args.trace);
  fungusbench::Report report;
  const int rc =
      serve ? fungusbench::RunServeRead(args, tracer, report)
            : fungusbench::RunRotCycle(args, tracer, report);
  if (rc != 0) {
    for (const std::string& f : report.failures()) {
      std::cerr << "fungusbench: " << f << "\n";
    }
    return rc;
  }
  if (tracer.enabled()) {
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeTrace(path)) {
      std::cerr << "fungusbench: cannot write " << path << "\n";
      return 4;
    }
    std::cout << "trace: " << path << " (" << tracer.num_spans()
              << " spans)\n";
    std::cout << "selftime: span self_ms total_ms count\n";
    for (const auto& [name, t] : tracer.SelfTimes()) {
      std::cout << "selftime: " << name << " " << t.self_ms << " "
                << t.total_ms << " " << t.count << "\n";
    }
  }
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}
