// dramstress: command-line driver for the full flow.
//
//   dramstress analyze  <defect> [side]          Section-3 fault analysis
//   dramstress optimize <defect> [side]          Section-4 stress optimization
//   dramstress report   <defect> [side]          markdown diagnostic report
//   dramstress table1                            the paper's Table 1
//   dramstress ffm      <defect> [side] <R>      fault-model classification
//   dramstress planes   <defect> [side]          w0/w1/r result planes (Fig. 2)
//   dramstress check-manifest <file>             validate a run manifest
//
// defect in {o1,o2,o3,sg,sv,b1,b2,b3}; side in {true,comp} (default true);
// R accepts engineering suffixes ("200k").
//
// --threads N (1..4096) caps the sweep worker pool (default:
// DRAMSTRESS_THREADS or all hardware threads); results are identical for
// every thread count.
//
// Every column transient runs on the ensemble engine with LTE-controlled
// stepping; result planes batch their R points as lanes sized to the worker
// pool.  There is no engine, stepping or lane switch, and results do not
// depend on the lane count.  --lte-tol X (1e-8..1) sets the relative LTE
// tolerance (default 5e-4; tighter tracks the fixed-step reference closer
// at the cost of more steps).
//
// --verify runs the static netlist verification (docs/LINT.md) over the
// column and every defect placeholder before the command, failing on
// errors; --verify=strict also fails on warnings.  With no command,
// "dramstress --verify" verifies and exits.
//
// --metrics FILE writes a versioned run manifest (settings, git revision,
// duration, full metric dump) on success; --trace FILE writes the span
// timing tree.  Schemas: docs/OBSERVABILITY.md.  --r-points N (2..512) sets
// the resistance grid size of `planes` (default 15).
//
// The analysis commands reject any other argument that starts with "--",
// a side other than true or comp, and any extra positional argument.
// `campaign` and the service verbs parse their own flags and accept only
// --threads, --metrics and --trace of the flags above: a campaign's
// numerics come from its spec alone.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include <atomic>
#include <csignal>
#include <thread>

#include "analysis/result_plane.hpp"
#include "campaign/cache_index.hpp"
#include "campaign/runner.hpp"
#include "circuit/spice_reader.hpp"  // parse_spice_number
#include "core/flow.hpp"
#include "core/report.hpp"
#include "obs/manifest.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

using namespace dramstress;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dramstress "
               "<analyze|optimize|report|table1|ffm|planes|check-manifest>\n"
               "                  [defect] [side] [R|file] [--threads N]\n"
               "                  [--lte-tol X] [--verify[=strict]]\n"
               "                  [--metrics FILE] [--trace FILE] "
               "[--r-points N]\n"
               "       dramstress campaign run <spec.json> [--out DIR] "
               "[--cache DIR] [--resume]\n"
               "       dramstress campaign status <run-dir>\n"
               "       dramstress campaign gc <spec.json> [--cache DIR]\n"
               "       dramstress serve --socket PATH [--runs DIR] "
               "[--cache DIR]\n"
               "                        [--workers N] [--io-threads N] "
               "[--cache-mem BYTES]\n"
               "       dramstress submit <spec.json> --socket PATH "
               "[--client NAME] [--wait]\n"
               "       dramstress watch <id> --socket PATH\n"
               "       dramstress status --socket PATH\n"
               "       dramstress shutdown --socket PATH\n"
               "  defect: o1 o2 o3 sg sv b1 b2 b3   side: true|comp\n"
               "  --verify runs the static netlist checks (docs/LINT.md) "
               "first; strict fails on warnings;\n"
               "  with no command, verify and exit\n"
               "  --metrics/--trace write a run manifest / span trace "
               "(docs/OBSERVABILITY.md)\n"
               "  campaign: resumable batch runs with a result cache "
               "(docs/CAMPAIGN.md)\n");
  return 2;
}

/// Transient-engine knobs stripped from the command line.
struct EngineFlags {
  double lte_tol = 5e-4;    // relative LTE tolerance
  bool verify = false;      // run static verification before the command
  bool verify_strict = false;  // ... and fail on warnings too
  int r_points = 15;        // resistance grid size of `planes`
  std::string metrics_path;  // --metrics FILE; empty = no manifest
  std::string trace_path;    // --trace FILE; empty = no trace
  /// --lte-tol, --verify or --r-points was given: valid only on the
  /// analysis commands.
  bool analysis_only = false;
};

/// Strict decimal integer in [lo, hi]; false on anything else.
bool parse_bounded(const char* s, long lo, long hi, long* out) {
  char* end = nullptr;
  const long n = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || n < lo || n > hi) return false;
  *out = n;
  return true;
}

/// Strip --threads[=| ]N, --lte-tol[=| ]X, --verify[=strict], --metrics,
/// --trace and --r-points from argv, applying them to the sweep pool /
/// `flags`.  Returns the remaining arguments, unknown flags included;
/// false on a malformed flag.
bool extract_flags(int argc, char** argv, std::vector<char*>* args,
                   EngineFlags* flags) {
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    const char* value = nullptr;
    bool is_tol = false;
    bool is_r_points = false;
    std::string* path = nullptr;
    if (std::strcmp(a, "--verify") == 0) {
      flags->verify = flags->analysis_only = true;
      continue;
    }
    if (std::strcmp(a, "--verify=strict") == 0) {
      flags->verify = flags->verify_strict = flags->analysis_only = true;
      continue;
    }
    if (std::strncmp(a, "--metrics=", 10) == 0) {
      flags->metrics_path = a + 10;
      continue;
    }
    if (std::strcmp(a, "--metrics") == 0) {
      path = &flags->metrics_path;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      flags->trace_path = a + 8;
      continue;
    } else if (std::strcmp(a, "--trace") == 0) {
      path = &flags->trace_path;
    }
    if (path) {
      if (i + 1 >= argc) return false;
      *path = argv[++i];
      if (path->empty()) return false;
      continue;
    }
    if (std::strncmp(a, "--r-points=", 11) == 0) {
      value = a + 11;
      is_r_points = true;
    } else if (std::strcmp(a, "--r-points") == 0) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
      is_r_points = true;
    } else if (std::strncmp(a, "--lte-tol=", 10) == 0) {
      value = a + 10;
      is_tol = true;
    } else if (std::strcmp(a, "--lte-tol") == 0) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
      is_tol = true;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      value = a + 10;
    } else if (std::strcmp(a, "--threads") == 0) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    } else {
      args->push_back(argv[i]);
      continue;
    }
    long n = 0;
    if (is_tol) {
      char* end = nullptr;
      const double tol = std::strtod(value, &end);
      // The bound of a campaign spec's "settings.lte_tol"; the negated
      // test also rejects nan.
      if (end == value || *end != '\0' || !(tol >= 1e-8 && tol <= 1.0))
        return false;
      flags->lte_tol = tol;
      flags->analysis_only = true;
    } else if (is_r_points) {
      // The bound of a campaign spec's "planes.r_points".
      if (!parse_bounded(value, 2, 512, &n)) return false;
      flags->r_points = static_cast<int>(n);
      flags->analysis_only = true;
    } else {
      if (!parse_bounded(value, 1, util::kMaxThreads, &n)) return false;
      util::set_default_threads(static_cast<int>(n));
    }
  }
  return true;
}

bool parse_defect(const char* s, defect::DefectKind* out) {
  using defect::DefectKind;
  static const std::pair<const char*, DefectKind> kMap[] = {
      {"o1", DefectKind::O1}, {"o2", DefectKind::O2}, {"o3", DefectKind::O3},
      {"sg", DefectKind::Sg}, {"sv", DefectKind::Sv}, {"b1", DefectKind::B1},
      {"b2", DefectKind::B2}, {"b3", DefectKind::B3}};
  for (const auto& [name, kind] : kMap) {
    if (std::strcmp(s, name) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool parse_side(const char* s, dram::Side* out) {
  if (std::strcmp(s, "true") == 0) {
    *out = dram::Side::True;
    return true;
  }
  if (std::strcmp(s, "comp") == 0) {
    *out = dram::Side::Comp;
    return true;
  }
  return false;
}

void show_border(const analysis::BorderResult& br,
                 const defect::Defect& d) {
  if (!br.br.has_value()) {
    std::printf("%s: no faulty behaviour in its resistance range\n",
                d.name().c_str());
    return;
  }
  std::printf("%s: border %s (faults %s), condition '%s'\n", d.name().c_str(),
              util::eng(*br.br, "Ohm").c_str(),
              br.fault_at_high_r ? "above" : "below",
              br.condition.str().c_str());
}

/// Manifest header/settings for this invocation.  A spec-driven command's
/// numerics live in its spec, so only the analysis commands record the
/// command line's lte_tol and r_points.
obs::ManifestInfo make_manifest_info(const EngineFlags& eng,
                                     const std::string& cmdline,
                                     double duration_s, bool spec_driven) {
  obs::ManifestInfo info;
  info.tool = "dramstress";
  info.command = cmdline;
  info.settings_number["threads"] = util::resolve_threads(0);
  if (!spec_driven) {
    info.settings_number["lte_tol"] = eng.lte_tol;
    info.settings_number["r_points"] = eng.r_points;
  }
  info.duration_s = duration_s;
  return info;
}

/// `check-manifest <file>`: validate against the documented schema.
int check_manifest(const char* path) {
  std::ifstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return 1;
  }
  std::ostringstream text;
  text << f.rdbuf();
  const std::vector<std::string> errs =
      obs::validate_manifest_json(text.str());
  for (const std::string& e : errs)
    std::fprintf(stderr, "%s: %s\n", path, e.c_str());
  if (!errs.empty()) return 1;
  std::printf("%s: valid (manifest schema v%d)\n", path,
              obs::kManifestVersion);
  return 0;
}

/// `campaign run|status|gc` (docs/CAMPAIGN.md).
int run_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  std::string out = "campaign-run";
  std::string cache_dir = "campaign-cache";
  bool resume = false;
  std::vector<std::string> pos;
  for (int i = 3; i < argc; ++i) {
    const char* a = argv[i];
    std::string* path = nullptr;
    if (std::strcmp(a, "--resume") == 0) {
      resume = true;
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      out = a + 6;
    } else if (std::strcmp(a, "--out") == 0) {
      path = &out;
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      cache_dir = a + 8;
    } else if (std::strcmp(a, "--cache") == 0) {
      path = &cache_dir;
    } else if (a[0] == '-') {
      return usage();
    } else {
      pos.push_back(a);
    }
    if (path) {
      if (i + 1 >= argc) return usage();
      *path = argv[++i];
      if (path->empty()) return usage();
    }
  }

  const auto load = [](const std::string& spec_path)
      -> std::optional<campaign::CampaignSpec> {
    verify::VerifyReport report;
    std::optional<campaign::CampaignSpec> spec =
        campaign::load_spec(spec_path, &report);
    if (!report.clean()) std::fputs(report.str().c_str(), stderr);
    if (!spec.has_value())
      std::fprintf(stderr, "error: %s is not a valid campaign spec\n",
                   spec_path.c_str());
    return spec;
  };

  if (sub == "run") {
    if (pos.size() != 1) return usage();
    const std::optional<campaign::CampaignSpec> spec = load(pos[0]);
    if (!spec.has_value()) return 1;
    const dram::TechnologyParams tech = dram::default_technology();
    dram::DramColumn column(tech);
    campaign::CampaignPlan plan = campaign::expand(*spec, column);
    campaign::RunnerOptions opt;
    opt.resume = resume;
    std::printf("campaign '%s': %zu units -> %s (cache %s)\n",
                spec->name.c_str(), plan.units.size(), out.c_str(),
                cache_dir.c_str());
    campaign::CampaignRunner runner(std::move(plan), tech, out, cache_dir,
                                    opt);
    const campaign::CampaignResult r = runner.run();
    if (!r.diagnostics.clean())
      std::fputs(r.diagnostics.str().c_str(), stderr);
    std::printf(
        "campaign '%s': %d computed, %d cached, %d retries, %d quarantined, "
        "%d skipped\n",
        spec->name.c_str(), r.done, r.cached, r.retried, r.quarantined,
        r.skipped);
    std::printf("report: %s\n", r.report_path.c_str());
    if (r.quarantined > 0)
      std::printf("failure report: %s\n", r.failure_report_path.c_str());
    // Quarantined units are recorded, not fatal: the campaign completed.
    return 0;
  }

  if (sub == "status") {
    if (pos.size() != 1) return usage();
    const std::string dir = pos[0];
    const std::optional<campaign::CampaignSpec> spec =
        load(dir + "/spec.json");
    if (!spec.has_value()) return 1;
    const dram::TechnologyParams tech = dram::default_technology();
    dram::DramColumn column(tech);
    const campaign::CampaignPlan plan = campaign::expand(*spec, column);
    verify::VerifyReport report;
    const std::map<std::string, campaign::JournalEntry> journal =
        campaign::Journal::replay(dir + "/journal.jsonl", &report);
    if (!report.clean()) std::fputs(report.str().c_str(), stderr);
    int done = 0, quarantined = 0;
    for (const campaign::WorkUnit& u : plan.units) {
      const auto it = journal.find(u.key.hex());
      if (it == journal.end()) continue;
      if (it->second.status == "quarantined")
        ++quarantined;
      else
        ++done;
    }
    const int remaining =
        static_cast<int>(plan.units.size()) - done - quarantined;
    std::printf("campaign '%s' in %s: %zu units, %d done, %d quarantined, "
                "%d remaining\n",
                spec->name.c_str(), dir.c_str(), plan.units.size(), done,
                quarantined, remaining);
    return 0;
  }

  if (sub == "gc") {
    if (pos.empty()) return usage();
    // Everything reachable from the given specs is live; the rest of the
    // cache is from older engine versions or edited specs.
    std::map<std::string, bool> live;
    const dram::TechnologyParams tech = dram::default_technology();
    dram::DramColumn column(tech);
    for (const std::string& spec_path : pos) {
      const std::optional<campaign::CampaignSpec> spec = load(spec_path);
      if (!spec.has_value()) return 1;
      const campaign::CampaignPlan plan = campaign::expand(*spec, column);
      for (const campaign::WorkUnit& u : plan.units)
        live[u.key.hex()] = true;
    }
    const campaign::SharedCache cache(cache_dir);
    const int removed = cache.disk().sweep(live);
    std::printf("campaign gc: %d stale objects removed from %s (%zu live)\n",
                removed, cache_dir.c_str(), live.size());
    return 0;
  }

  return usage();
}

// --- service verbs (docs/SERVICE.md) ----------------------------------

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

/// Strip --socket/--runs/--cache/--client + numeric service flags from
/// argv[from..); returns remaining positionals, or nullopt on bad flags.
struct ServiceFlags {
  std::string socket;
  std::string runs = "service-runs";
  std::string cache = "campaign-cache";
  std::string client = "default";
  int workers = 0;
  int io_threads = 4;
  size_t cache_mem = 64ull << 20;
  bool wait = false;
};

bool extract_service_flags(int argc, char** argv, int from,
                           std::vector<std::string>* pos,
                           ServiceFlags* f) {
  for (int i = from; i < argc; ++i) {
    const char* a = argv[i];
    std::string* str = nullptr;
    const char* num = nullptr;
    bool is_workers = false, is_io = false, is_mem = false;
    if (std::strcmp(a, "--wait") == 0) {
      f->wait = true;
      continue;
    }
    if (std::strncmp(a, "--socket=", 9) == 0) {
      f->socket = a + 9;
      continue;
    }
    if (std::strcmp(a, "--socket") == 0) {
      str = &f->socket;
    } else if (std::strncmp(a, "--runs=", 7) == 0) {
      f->runs = a + 7;
      continue;
    } else if (std::strcmp(a, "--runs") == 0) {
      str = &f->runs;
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      f->cache = a + 8;
      continue;
    } else if (std::strcmp(a, "--cache") == 0) {
      str = &f->cache;
    } else if (std::strncmp(a, "--client=", 9) == 0) {
      f->client = a + 9;
      continue;
    } else if (std::strcmp(a, "--client") == 0) {
      str = &f->client;
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      num = a + 10;
      is_workers = true;
    } else if (std::strcmp(a, "--workers") == 0) {
      if (i + 1 >= argc) return false;
      num = argv[++i];
      is_workers = true;
    } else if (std::strncmp(a, "--io-threads=", 13) == 0) {
      num = a + 13;
      is_io = true;
    } else if (std::strcmp(a, "--io-threads") == 0) {
      if (i + 1 >= argc) return false;
      num = argv[++i];
      is_io = true;
    } else if (std::strncmp(a, "--cache-mem=", 12) == 0) {
      num = a + 12;
      is_mem = true;
    } else if (std::strcmp(a, "--cache-mem") == 0) {
      if (i + 1 >= argc) return false;
      num = argv[++i];
      is_mem = true;
    } else if (a[0] == '-') {
      return false;
    } else {
      pos->push_back(a);
      continue;
    }
    if (str) {
      if (i + 1 >= argc) return false;
      *str = argv[++i];
      if (str->empty()) return false;
      continue;
    }
    if (is_mem) {
      // Accepts engineering suffixes ("64M", "1G") like every other
      // byte/ohm quantity on this command line.
      const double v = circuit::parse_spice_number(num);
      if (!(v > 0)) return false;
      f->cache_mem = static_cast<size_t>(v);
      continue;
    }
    long n = 0;
    if (!parse_bounded(num, 1, util::kMaxThreads, &n)) return false;
    if (is_workers) f->workers = static_cast<int>(n);
    if (is_io) f->io_threads = static_cast<int>(n);
  }
  return true;
}

void print_session_line(const util::json::Value& s) {
  const auto text = [&s](const char* k) {
    const util::json::Value* v = s.find(k);
    return v != nullptr && v->is_string() ? v->string : std::string();
  };
  const auto num = [&s](const char* k) {
    const util::json::Value* v = s.find(k);
    return v != nullptr && v->is_number() ? static_cast<int>(v->number) : 0;
  };
  std::printf(
      "session %s [%s] '%s': %s -- %d/%d resolved (%d computed, %d "
      "cached, %d quarantined, %d skipped)\n",
      text("id").c_str(), text("client").c_str(), text("campaign").c_str(),
      text("state").c_str(), num("total") - num("pending"), num("total"),
      num("done"), num("cached"), num("quarantined"), num("skipped"));
}

int run_serve(const ServiceFlags& f) {
  service::ServerOptions o;
  o.socket_path = f.socket;
  o.runs_dir = f.runs;
  o.cache_dir = f.cache;
  o.workers = f.workers;
  o.io_threads = f.io_threads;
  o.cache_mem_bytes = f.cache_mem;
  service::Server server(dram::default_technology(), o);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::printf("dramstress serve: listening on %s (runs %s, cache %s)\n",
              f.socket.c_str(), f.runs.c_str(), f.cache.c_str());
  std::fflush(stdout);
  std::atomic<bool> done{false};
  std::thread t([&server, &done] {
    server.serve();
    done.store(true);
  });
  // serve() returns on POST /shutdown; a SIGINT/SIGTERM triggers the
  // same graceful drain (running campaigns finish and write reports).
  while (!done.load()) {
    if (g_stop_signal != 0) {
      server.shutdown();
      g_stop_signal = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  t.join();
  std::printf("dramstress serve: drained\n");
  return 0;
}

int run_watch(const ServiceFlags& f, const std::string& id);

int run_submit(const ServiceFlags& f, const std::string& spec_path) {
  std::ifstream file(spec_path);
  if (!file.good()) {
    std::fprintf(stderr, "error: cannot read %s\n", spec_path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << file.rdbuf();
  util::json::Value spec;
  try {
    spec = util::json::parse(text.str());
  } catch (const util::json::ParseError& e) {
    std::fprintf(stderr, "error: %s line %d: %s\n", spec_path.c_str(),
                 util::json::line_of(text.str(), e.offset()), e.what());
    return 1;
  }
  util::json::Writer w;
  w.begin_object();
  w.key("client").value(f.client);
  w.key("spec");
  util::json::append(w, spec);
  w.end_object();
  service::Request req;
  req.method = "POST";
  req.target = "/submit";
  req.body = w.str();
  const service::Response resp = service::request(f.socket, req);
  if (resp.status != 202) {
    std::fprintf(stderr, "error: submit rejected (%d %s):\n%s\n",
                 resp.status, service::status_reason(resp.status),
                 resp.body.c_str());
    return 1;
  }
  const util::json::Value st = util::json::parse(resp.body);
  print_session_line(st);
  const util::json::Value* id = st.find("id");
  if (!f.wait || id == nullptr) return 0;
  return run_watch(f, id->string);
}

int run_watch(const ServiceFlags& f, const std::string& id) {
  service::Request req;
  req.method = "GET";
  req.target = "/status/" + id;
  for (;;) {
    const service::Response resp = service::request(f.socket, req);
    if (resp.status != 200) {
      std::fprintf(stderr, "error: %d %s:\n%s\n", resp.status,
                   service::status_reason(resp.status), resp.body.c_str());
      return 1;
    }
    const util::json::Value st = util::json::parse(resp.body);
    print_session_line(st);
    const util::json::Value* fin = st.find("finished");
    if (fin != nullptr && fin->is_bool() && fin->boolean) {
      const util::json::Value* state = st.find("state");
      const util::json::Value* report = st.find("report");
      if (report != nullptr)
        std::printf("report: %s\n", report->string.c_str());
      return state != nullptr && state->string == "finished" ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

int run_simple_verb(const ServiceFlags& f, const char* method,
                    const char* target) {
  service::Request req;
  req.method = method;
  req.target = target;
  if (std::strcmp(method, "POST") == 0) req.body = "{}";
  const service::Response resp = service::request(f.socket, req);
  std::printf("%s\n", resp.body.c_str());
  return resp.status < 400 ? 0 : 1;
}

int run_service_verb(const std::string& cmd, int argc, char** argv) {
  ServiceFlags f;
  std::vector<std::string> pos;
  if (!extract_service_flags(argc, argv, 2, &pos, &f)) return usage();
  if (f.socket.empty()) {
    std::fprintf(stderr, "error: %s needs --socket PATH\n", cmd.c_str());
    return 2;
  }
  if (cmd == "serve") {
    if (!pos.empty()) return usage();
    return run_serve(f);
  }
  if (cmd == "submit") {
    if (pos.size() != 1) return usage();
    return run_submit(f, pos[0]);
  }
  if (cmd == "watch") {
    if (pos.size() != 1) return usage();
    return run_watch(f, pos[0]);
  }
  if (cmd == "status") {
    if (!pos.empty()) return usage();
    return run_simple_verb(f, "GET", "/status");
  }
  if (cmd == "shutdown") {
    if (!pos.empty()) return usage();
    return run_simple_verb(f, "POST", "/shutdown");
  }
  return usage();
}

/// `r_arg` is ffm's resistance argument (null for the other commands).
int run_command(const std::string& cmd, const char* r_arg, defect::Defect d,
                const EngineFlags& eng) {
  const bool verify_only = eng.verify && cmd.empty();
  stress::OptimizerOptions options;
  options.settings.lte_tol = eng.lte_tol;
  core::StressFlow flow(dram::default_technology(),
                        stress::nominal_condition(), options);
  if (eng.verify) {
    const verify::VerifyReport report = flow.verify();
    std::fputs(report.str().c_str(), stderr);
    if (!report.ok() || (eng.verify_strict && report.warnings() > 0)) {
      std::fprintf(stderr, "error: netlist verification failed%s\n",
                   eng.verify_strict ? " (strict: warnings are fatal)" : "");
      return 1;
    }
    if (verify_only) return 0;
  }
  if (cmd == "analyze") {
    show_border(flow.analyze(d), d);
    return 0;
  }
  if (cmd == "optimize") {
    const auto r = flow.optimize(d);
    show_border(r.nominal_border, d);
    for (const auto& dec : r.decisions)
      std::printf("  %-5s -> %s (%s)\n", stress::to_string(dec.axis),
                  dec.direction().c_str(), stress::to_string(dec.method));
    std::printf("stressed: %s\n", stress::describe(r.stressed_sc).c_str());
    show_border(r.stressed_border, d);
    return 0;
  }
  if (cmd == "report") {
    const auto r = flow.optimize(d);
    std::fputs(core::optimization_report(flow.column(), r).c_str(), stdout);
    return 0;
  }
  if (cmd == "table1") {
    std::fputs(flow.table1().render().c_str(), stdout);
    return 0;
  }
  if (cmd == "ffm") {
    const double r = circuit::parse_spice_number(r_arg);
    defect::Injection inj(flow.column(), d, r);
    dram::ColumnSimulator sim(flow.column(), flow.nominal(),
                              flow.options().settings);
    std::printf("%s at %s: %s\n", d.name().c_str(),
                util::eng(r, "Ohm").c_str(),
                analysis::classify_ffm(sim, d.side).str().c_str());
    return 0;
  }
  if (cmd == "planes") {
    // The three Fig. 2 planes of one defect at the nominal corner, from
    // one sweep that extracts each point's Vsa once.
    analysis::PlaneOptions popt;
    popt.num_r_points = eng.r_points;
    dram::ColumnSimulator sim(flow.column(), flow.nominal(),
                              flow.options().settings);
    const analysis::PlaneSet set =
        analysis::generate_plane_set(flow.column(), d, sim, popt);
    auto summarize = [](const char* name, const analysis::ResultPlane& p) {
      double vsa_lo = p.vsa.front(), vsa_hi = p.vsa.front();
      for (const double v : p.vsa) {
        vsa_lo = std::min(vsa_lo, v);
        vsa_hi = std::max(vsa_hi, v);
      }
      std::printf("%s plane: %zu R points x %zu curves, Vsa in [%.3f, %.3f] V\n",
                  name, p.r_values.size(), p.curves.size(), vsa_lo, vsa_hi);
    };
    summarize("w0", set.w0);
    summarize("w1", set.w1);
    summarize("r", set.r);
    return 0;
  }
  return usage();
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  const auto t0 = std::chrono::steady_clock::now();
  // Test-only fault points (docs/SERVICE.md); inert unless the
  // DRAMSTRESS_FAULTS environment variable is set.  Armed before any
  // worker thread exists.
  try {
    util::fault::arm_from_env();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: DRAMSTRESS_FAULTS: %s\n", e.what());
    return 2;
  }
  std::vector<char*> args;
  EngineFlags eng;
  if (!extract_flags(raw_argc, raw_argv, &args, &eng)) return usage();
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  const bool verify_only = eng.verify && argc < 2;
  if (argc < 2 && !verify_only) return usage();
  const std::string cmd = verify_only ? "" : argv[1];

  if (cmd == "check-manifest") {
    if (argc < 3) return usage();
    return check_manifest(argv[2]);
  }

  const bool spec_driven = cmd == "campaign" || cmd == "serve" ||
                           cmd == "submit" || cmd == "watch" ||
                           cmd == "status" || cmd == "shutdown";
  if (spec_driven && eng.analysis_only) return usage();
  int rc = 1;
  try {
    if (cmd == "campaign") {
      rc = run_campaign(argc, argv);
    } else if (spec_driven) {
      rc = run_service_verb(cmd, argc, argv);
    } else {
      for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--", 2) == 0) return usage();
      // Positionals: [defect] [side], then ffm's <R>; table1 takes none.
      std::vector<const char*> pos(argv + std::min(argc, 2), argv + argc);
      const char* r_arg = nullptr;
      if (cmd == "ffm") {
        if (pos.size() < 2) return usage();
        r_arg = pos.back();
        pos.pop_back();
      }
      if (pos.size() > (cmd == "table1" ? 0u : 2u)) return usage();
      defect::Defect d{defect::DefectKind::O3, dram::Side::True};
      if (!pos.empty() && !parse_defect(pos[0], &d.kind)) return usage();
      if (pos.size() > 1 && !parse_side(pos[1], &d.side)) return usage();
      rc = run_command(cmd, r_arg, d, eng);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (rc == 0 && (!eng.metrics_path.empty() || !eng.trace_path.empty())) {
    std::string cmdline;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) cmdline += ' ';
      cmdline += argv[i];
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    try {
      const obs::ManifestInfo info =
          make_manifest_info(eng, cmdline, wall.count(), spec_driven);
      if (!eng.metrics_path.empty()) obs::write_manifest(eng.metrics_path, info);
      if (!eng.trace_path.empty()) obs::write_trace(eng.trace_path, info);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  return rc;
}
