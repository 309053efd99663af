// perfbench: the repository benchmark's measuring program. One process runs
// one workload and prints, as its last stdout line, one JSON object with
// every metric it computed; perfbench/run.py builds it, runs it and keeps the
// metrics BENCHMARK.json names for the run's mode.
//
//   perfbench --workload social|road|serve --seed N --seconds S --trace 0|1
//             [--trace-out spans.jsonl] [--socket serve.sock]
//
// Exit status: 0 when every answer matched its oracle and every exact count
// repeated; 1 otherwise (the JSON line is still printed, "correct": false);
// 2 on bad usage or a set-up failure (nothing printed). Requests that got no
// answer (rejects, timeouts, transport errors) count as failed but are not
// incorrect.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else if (flag == "--socket") {
      o->socket_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o->seconds > 0 &&
         (o->workload == "social" || o->workload == "road" ||
          (o->workload == "serve" && !o->socket_path.empty()));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload social|road|serve --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] [--socket PATH]\n");
    return 2;
  }
  perfbench::Report report;
  perfbench::Outcome outcome;
  const bool ran = options.workload == "serve"
                       ? perfbench::RunServeWorkload(options, &report, &outcome)
                       : perfbench::RunEngineWorkload(options, &report, &outcome);
  if (!ran) {
    return 2;
  }
  const bool correct = outcome.wrong == 0 && !outcome.drift;
  std::printf("%s\n",
              report.Json(correct, outcome.attempted, outcome.failed).c_str());
  return correct ? 0 : 1;
}
