#include "lab/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "check/command.hpp"
#include "check/trace_cmd.hpp"
#include "lab/engine.hpp"
#include "lab/manifest.hpp"
#include "lab/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/commands.hpp"

namespace mcast::lab {

namespace {

namespace fs = std::filesystem;

void usage(std::ostream& out) {
  out << "usage: mcast_lab <command> [options]\n"
         "\n"
         "commands:\n"
         "  list [--json]            enumerate experiment ids\n"
         "  describe <id>            show claim, parameters, metric groups\n"
         "  run <id> | run --all     run experiments\n"
         "  validate <dir>           schema-check BENCH_*.json manifests\n"
         "  check --manifest F --expect F [--trace F] [--baseline F]\n"
         "         [--report F]      evaluate a declarative expectation\n"
         "                           spec (docs/expectations.md) against a\n"
         "                           run manifest, Chrome trace and perf\n"
         "                           baseline; exit 0 pass, 2 spec error,\n"
         "                           3 expectations violated\n"
         "  trace --profile=F [--access-log=F] [--trace-id=HEX] [--top=K]\n"
         "                           summarize a Chrome trace, joined on\n"
         "                           trace id with the service access log:\n"
         "                           top-K spans by cumulative time,\n"
         "                           per-request span groups, top-K slow\n"
         "                           requests with critical paths, retry\n"
         "                           attempt chains (docs/observability.md)\n"
         "  serve [--port=N] [--threads=K] [--queue=N] [--max-line=B]\n"
         "         [--metrics-summary] [--profile=FILE]\n"
         "         [--access-log=FILE] [--slow-us=N] [--trace-seed=N]\n"
         "                           run the line-JSON query service until\n"
         "                           SIGINT/SIGTERM (docs/service.md)\n"
         "  query --port=N [line..]  send request lines (argv or stdin) to a\n"
         "                           running server; exit 0 iff all ok;\n"
         "                           --trace=BASE tags every attempt with\n"
         "                           \"BASE-a<N>\" for attempt-chain joins\n"
         "  query --port=N --batch=F fold file F (one sub-op per line) into a\n"
         "                           single batch envelope; prints one result\n"
         "                           doc per line, exit 2 if any sub-op fails\n"
         "\n"
         "run options:\n"
         "  --param k=v              override a parameter (repeatable)\n"
         "  --scale N                effort tier (overrides MCAST_BENCH_SCALE)\n"
         "  --threads N              scheduler workers (0 = hardware)\n"
         "  --manifest-dir DIR       where BENCH_<id>.json lands (default .)\n"
         "  --out-dir DIR            also write per-experiment <id>.dat files\n"
         "  --no-manifest            skip writing run manifests\n"
         "  --profile=FILE           write a merged Chrome trace (trace_event\n"
         "                           JSON; load in chrome://tracing/Perfetto)\n"
         "  --metrics-summary        print the obs registry per run on stderr\n";
}

[[noreturn]] void die(const std::string& message) {
  throw std::invalid_argument(message);
}

std::string next_arg(const std::vector<std::string>& args, std::size_t& i,
                     const std::string& flag) {
  if (i + 1 >= args.size()) die(flag + " needs a value");
  return args[++i];
}

struct run_flags {
  run_options options;
  std::vector<std::string> ids;
  bool all = false;
  std::string manifest_dir = ".";
  std::string out_dir;
  bool write_manifests = true;
  std::string profile_path;     // empty = no trace
  bool metrics_summary = false;
};

run_flags parse_run_flags(const std::vector<std::string>& args) {
  run_flags flags;
  flags.options.scale = scale_from_env();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--all") {
      flags.all = true;
    } else if (arg == "--param") {
      const std::string kv = next_arg(args, i, arg);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        die("--param expects k=v, got '" + kv + "'");
      }
      flags.options.overrides.emplace_back(kv.substr(0, eq),
                                           kv.substr(eq + 1));
    } else if (arg == "--scale") {
      flags.options.scale = parse_scale(next_arg(args, i, arg));
    } else if (arg == "--threads") {
      flags.options.threads = static_cast<std::size_t>(
          parse_u64(next_arg(args, i, arg), "--threads"));
    } else if (arg == "--manifest-dir") {
      flags.manifest_dir = next_arg(args, i, arg);
    } else if (arg == "--out-dir") {
      flags.out_dir = next_arg(args, i, arg);
    } else if (arg == "--no-manifest") {
      flags.write_manifests = false;
    } else if (arg.rfind("--profile=", 0) == 0) {
      flags.profile_path = arg.substr(std::string("--profile=").size());
      if (flags.profile_path.empty()) die("--profile= needs a file path");
    } else if (arg == "--profile") {
      flags.profile_path = next_arg(args, i, arg);
    } else if (arg == "--metrics-summary") {
      flags.metrics_summary = true;
    } else if (!arg.empty() && arg[0] == '-') {
      die("unknown option '" + arg + "'");
    } else {
      flags.ids.push_back(arg);
    }
  }
  if (!flags.all && flags.ids.empty()) {
    die("run: give an experiment id or --all (see `mcast_lab list`)");
  }
  if (flags.all && !flags.ids.empty()) {
    die("run: --all cannot be combined with explicit ids");
  }
  if (flags.all && !flags.options.overrides.empty()) {
    die("run: --param applies to a single experiment, not --all");
  }
  return flags;
}

int cmd_list(const registry& reg, const std::vector<std::string>& args) {
  bool as_json = false;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      as_json = true;
    } else {
      die("list: unknown argument '" + arg + "'");
    }
  }
  if (as_json) {
    json::value doc = json::value::array();
    for (const experiment& e : reg.all()) {
      json::value entry = json::value::object();
      entry.set("id", json::value::string(e.id));
      entry.set("title", json::value::string(e.title));
      entry.set("claim", json::value::string(e.claim));
      json::value groups = json::value::array();
      for (const std::string& g : e.metric_groups) {
        groups.push(json::value::string(g));
      }
      entry.set("metric_groups", std::move(groups));
      doc.push(std::move(entry));
    }
    std::cout << json::dump(doc) << "\n";
    return 0;
  }
  std::size_t width = 0;
  for (const experiment& e : reg.all()) width = std::max(width, e.id.size());
  for (const experiment& e : reg.all()) {
    std::cout << e.id << std::string(width - e.id.size() + 2, ' ') << e.title
              << "\n";
  }
  return 0;
}

int cmd_describe(const registry& reg, const std::string& id) {
  const experiment* exp = reg.find(id);
  if (exp == nullptr) {
    std::cerr << "mcast_lab: unknown experiment '" << id
              << "' (see `mcast_lab list`)\n";
    return 1;
  }
  std::cout << "id:     " << exp->id << "\n"
            << "title:  " << exp->title << "\n"
            << "claim:  " << exp->claim << "\n";
  std::cout << "metric groups:";
  if (exp->metric_groups.empty()) {
    std::cout << " (none declared)";
  } else {
    for (const std::string& g : exp->metric_groups) std::cout << " " << g;
  }
  std::cout << "\n";
  if (exp->params.empty()) {
    std::cout << "parameters: (none)\n";
    return 0;
  }
  std::cout << "parameters (smoke / normal / paper defaults):\n";
  for (const param_spec& p : exp->params) {
    std::cout << "  " << p.name << " (" << kind_name(p.kind) << ") = "
              << render(p.smoke) << " / " << render(p.normal) << " / "
              << render(p.paper) << "\n"
              << "      " << p.description << "\n";
  }
  return 0;
}

int run_one(const experiment& exp, const run_flags& flags) {
  std::cerr << "[mcast_lab] run " << exp.id << " scale=" << flags.options.scale
            << " threads="
            << (flags.options.threads == 0 ? std::string("auto")
                                           : std::to_string(flags.options.threads))
            << "\n";
  const run_outcome outcome = run_experiment(exp, flags.options);
  outcome.output.render(std::cout);
  std::cout.flush();
  if (!std::cout) {
    throw std::runtime_error("stdout write failed (disk full or pipe closed?)");
  }

  if (!flags.out_dir.empty()) {
    const std::string path = flags.out_dir + "/" + exp.id + ".dat";
    std::ofstream dat(path, std::ios::trunc);
    if (!dat) throw std::runtime_error("cannot open '" + path + "'");
    outcome.output.render(dat);
    if (!dat) throw std::runtime_error("write to '" + path + "' failed");
  }

  std::string manifest_path = "-";
  if (flags.write_manifests) {
    manifest_path = flags.manifest_dir + "/BENCH_" + exp.id + ".json";
    write_manifest(outcome.manifest, manifest_path);
  }
  char wall[32];
  std::snprintf(wall, sizeof wall, "%.2f", outcome.manifest.wall_seconds);
  char cpu[32];
  std::snprintf(cpu, sizeof cpu, "%.2f", outcome.manifest.cpu_seconds);
  std::cerr << "[mcast_lab] done " << exp.id << " wall=" << wall
            << "s cpu=" << cpu << "s manifest=" << manifest_path << "\n";
  if (flags.metrics_summary) {
    std::cerr << "[mcast_lab] metrics for " << exp.id << ":\n";
    obs::render_metrics_summary(std::cerr, outcome.manifest.metrics);
  }
  return 0;
}

int cmd_run(const registry& reg, const std::vector<std::string>& args) {
  const run_flags flags = parse_run_flags(args);
  std::vector<const experiment*> selected;
  if (flags.all) {
    for (const experiment& e : reg.all()) selected.push_back(&e);
  } else {
    for (const std::string& id : flags.ids) {
      const experiment* exp = reg.find(id);
      if (exp == nullptr) {
        die("unknown experiment '" + id + "' (see `mcast_lab list`)");
      }
      selected.push_back(exp);
    }
  }
  // Create the output directories before any experiment runs: a bad
  // --manifest-dir should fail in milliseconds, not after a long sweep.
  if (flags.write_manifests) {
    std::error_code ec;
    fs::create_directories(flags.manifest_dir, ec);
    if (ec || !fs::is_directory(flags.manifest_dir)) {
      die("cannot create --manifest-dir '" + flags.manifest_dir + "'" +
          (ec ? ": " + ec.message() : ""));
    }
  }
  if (!flags.out_dir.empty()) {
    std::error_code ec;
    fs::create_directories(flags.out_dir, ec);
    if (ec || !fs::is_directory(flags.out_dir)) {
      die("cannot create --out-dir '" + flags.out_dir + "'" +
          (ec ? ": " + ec.message() : ""));
    }
  }
  if (!flags.profile_path.empty()) {
    obs::trace_clear();
    obs::trace_enable();
  }
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) std::cout << "\n";
    run_one(*selected[i], flags);
  }
  if (!flags.profile_path.empty()) {
    obs::trace_disable();
    const obs::trace_dump dump = obs::trace_collect();
    obs::write_chrome_trace_file(flags.profile_path, dump);
    std::cerr << "[mcast_lab] trace " << flags.profile_path << " ("
              << dump.events.size() << " events, " << dump.dropped
              << " dropped)\n";
  }
  return 0;
}

int cmd_validate(const std::vector<std::string>& args) {
  if (args.size() != 1) die("validate: give exactly one manifest directory");
  const fs::path dir(args[0]);
  if (!fs::is_directory(dir)) {
    std::cerr << "mcast_lab: '" << args[0] << "' is not a directory\n";
    return 2;
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "mcast_lab: no BENCH_*.json manifests in '" << args[0]
              << "'\n";
    return 2;
  }
  int bad = 0;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<std::string> problems;
    try {
      problems = validate_manifest(json::parse(text.str()));
    } catch (const std::exception& e) {
      problems.push_back(e.what());
    }
    if (problems.empty()) {
      std::cout << file.filename().string() << ": ok\n";
    } else {
      ++bad;
      for (const std::string& p : problems) {
        std::cout << file.filename().string() << ": " << p << "\n";
      }
    }
  }
  std::cout << files.size() << " manifest(s), " << bad << " invalid\n";
  return bad == 0 ? 0 : 2;
}

}  // namespace

int run_cli(const registry& reg, int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help" ||
        args[0] == "-h") {
      usage(std::cout);
      return args.empty() ? 1 : 0;
    }
    const std::string command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (command == "list") return cmd_list(reg, rest);
    if (command == "describe") {
      if (rest.size() != 1) die("describe: give exactly one experiment id");
      return cmd_describe(reg, rest[0]);
    }
    if (command == "run") return cmd_run(reg, rest);
    if (command == "validate") return cmd_validate(rest);
    if (command == "check") return check::run_check(rest);
    if (command == "trace") return check::run_trace(rest);
    if (command == "serve") return service::run_serve(rest);
    if (command == "query") return service::run_query(rest);
    die("unknown command '" + command + "'");
  } catch (const std::invalid_argument& e) {
    std::cerr << "mcast_lab: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "mcast_lab: error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mcast::lab
