// cgq_bench: runs one workload of the benchmark and writes
// <out>/result.json (metrics, operation counts, and the answers, plans
// and write-path facts the Python checks read). run.py drives it.
//
//   cgq_bench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//             [--hosts=FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

std::string JoinJson(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\n" : "") + items[i];
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  cgqbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (Flag(argv[i], "--out", &v)) {
      options.out_dir = v;
    } else if (Flag(argv[i], "--hosts", &v)) {
      options.hosts_file = v;
    } else {
      std::fprintf(stderr, "cgq_bench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (options.out_dir.empty()) {
    std::fprintf(stderr, "cgq_bench: --out=DIR is required\n");
    return 2;
  }

  cgqbench::RunOutput out;
  int rc;
  if (options.workload == "service-mix") {
    rc = cgqbench::RunService(options, &out);
  } else if (options.workload == "tpch-mem" ||
             options.workload == "tpch-disk" ||
             options.workload == "tpch-dist") {
    rc = cgqbench::RunTpch(options, &out);
  } else {
    std::fprintf(stderr, "cgq_bench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "cgq_bench: %s\n", note.c_str());
  }
  if (rc != 0) return rc;

  std::string metrics = "{";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    metrics += (first ? "" : ",\n") + cgqbench::JsonString(name) + ":" +
               cgqbench::JsonNumber(value);
    first = false;
  }
  metrics += "}";
  const std::string result =
      "{\"workload\":" + cgqbench::JsonString(options.workload) +
      ",\"seed\":" + std::to_string(options.seed) +
      ",\"attempted\":" + std::to_string(out.attempted) +
      ",\"failed\":" + std::to_string(out.failed) +
      ",\"metrics\":" + metrics +
      ",\"notes\":" + [&] {
        std::vector<std::string> quoted;
        for (const std::string& n : out.notes) {
          quoted.push_back(cgqbench::JsonString(n));
        }
        return JoinJson(quoted);
      }() +
      ",\"answers\":" + JoinJson(out.answers) +
      ",\"edges\":" + JoinJson(out.edges) +
      ",\"durability\":" + out.durability + ",\"extra\":" + out.extra +
      "}\n";
  if (!cgqbench::WriteFile(options.out_dir + "/result.json", result)) {
    std::fprintf(stderr, "cgq_bench: cannot write result.json\n");
    return 1;
  }
  return 0;
}
