#include "campaign/spec.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace dramstress::campaign {

namespace util = dramstress::util;
using util::json::Value;
using verify::Code;
using verify::Diagnostic;
using verify::Severity;
using verify::VerifyReport;

const char* to_string(UnitKind kind) {
  switch (kind) {
    case UnitKind::Border: return "border";
    case UnitKind::Planes: return "planes";
    case UnitKind::Optimize: return "optimize";
  }
  return "?";
}

namespace {

/// Context shared by the schema walkers: the raw text (for line numbers)
/// and the diagnostic sink.
struct SpecCtx {
  const std::string& text;
  VerifyReport* report;
  bool failed = false;

  void diag(Code code, const std::string& message, size_t offset) {
    Diagnostic d;
    d.code = code;
    d.severity = verify::default_severity(code);
    d.message = message;
    d.spice_line = util::json::line_of(text, offset);
    report->add(d);
    if (d.severity == Severity::Error) failed = true;
  }
};

bool parse_defect_token(const std::string& token, defect::Defect* out) {
  std::string kind = token;
  out->side = dram::Side::True;
  const size_t slash = token.find('/');
  if (slash != std::string::npos) {
    kind = token.substr(0, slash);
    const std::string side = token.substr(slash + 1);
    if (side == "comp") out->side = dram::Side::Comp;
    else if (side != "true") return false;
  }
  static const std::pair<const char*, defect::DefectKind> kMap[] = {
      {"o1", defect::DefectKind::O1}, {"o2", defect::DefectKind::O2},
      {"o3", defect::DefectKind::O3}, {"sg", defect::DefectKind::Sg},
      {"sv", defect::DefectKind::Sv}, {"b1", defect::DefectKind::B1},
      {"b2", defect::DefectKind::B2}, {"b3", defect::DefectKind::B3}};
  for (const auto& [name, k] : kMap) {
    if (kind == name) {
      out->kind = k;
      return true;
    }
  }
  return false;
}

std::string defect_token(const defect::Defect& d) {
  std::string s = defect::to_string(d.kind);
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (d.side == dram::Side::Comp) s += "/comp";
  return s;
}

/// Reject keys outside `allowed` (W305, ignored) on an object value.
void check_keys(SpecCtx& ctx, const Value& obj,
                const std::set<std::string>& allowed,
                const std::string& where) {
  for (const auto& [key, val] : obj.object) {
    if (allowed.count(key) == 0)
      ctx.diag(Code::SpecUnknownKey,
               "unknown key \"" + key + "\" in " + where + " (ignored)",
               val.offset);
  }
}

/// Fetch a required/optional member, checking its JSON kind.  Returns
/// nullptr (after reporting) when absent or mistyped.
const Value* member(SpecCtx& ctx, const Value& obj, const std::string& key,
                    Value::Kind kind, const char* kind_name, bool required,
                    const std::string& where) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required)
      ctx.diag(Code::SpecMissingField,
               where + " is missing required field \"" + key + "\"",
               obj.offset);
    return nullptr;
  }
  if (v->kind != kind) {
    ctx.diag(Code::SpecBadType,
             where + " field \"" + key + "\" must be " + kind_name,
             v->offset);
    return nullptr;
  }
  return v;
}

/// Optional positive number member; writes through on success.
void number_in(SpecCtx& ctx, const Value& obj, const std::string& key,
               double lo, double hi, double* out, const std::string& where) {
  const Value* v = member(ctx, obj, key, Value::Kind::Number, "a number",
                          /*required=*/false, where);
  if (v == nullptr) return;
  if (!std::isfinite(v->number) || v->number < lo || v->number > hi) {
    ctx.diag(Code::SpecBadValue,
             util::format("%s field \"%s\" out of range (%g not in [%g, %g])",
                          where.c_str(), key.c_str(), v->number, lo, hi),
             v->offset);
    return;
  }
  *out = v->number;
}

void flag_in(SpecCtx& ctx, const Value& obj, const std::string& key,
             bool* out, const std::string& where) {
  const Value* v = member(ctx, obj, key, Value::Kind::Bool, "a boolean",
                          /*required=*/false, where);
  if (v != nullptr) *out = v->boolean;
}

void parse_defects(SpecCtx& ctx, const Value& root, CampaignSpec* spec) {
  const Value* arr = member(ctx, root, "defects", Value::Kind::Array,
                            "an array", /*required=*/true, "spec");
  if (arr == nullptr) return;
  if (arr->array.empty()) {
    ctx.diag(Code::SpecBadValue, "\"defects\" must not be empty",
             arr->offset);
    return;
  }
  std::set<std::string> seen;
  for (const Value& e : arr->array) {
    if (!e.is_string()) {
      ctx.diag(Code::SpecBadType,
               "\"defects\" entries must be strings like \"o3\" or "
               "\"sg/comp\"",
               e.offset);
      continue;
    }
    defect::Defect d;
    if (!parse_defect_token(e.string, &d)) {
      ctx.diag(Code::SpecBadValue,
               "unknown defect \"" + e.string +
                   "\" (expected o1|o2|o3|sg|sv|b1|b2|b3, optionally "
                   "\"/comp\")",
               e.offset);
      continue;
    }
    if (!seen.insert(e.string).second) {
      ctx.diag(Code::SpecBadValue, "duplicate defect \"" + e.string + "\"",
               e.offset);
      continue;
    }
    spec->defects.push_back(d);
  }
}

void parse_points(SpecCtx& ctx, const Value& root, CampaignSpec* spec) {
  const Value* arr = member(ctx, root, "points", Value::Kind::Array,
                            "an array", /*required=*/true, "spec");
  if (arr == nullptr) return;
  if (arr->array.empty()) {
    ctx.diag(Code::SpecBadValue, "\"points\" must not be empty", arr->offset);
    return;
  }
  std::set<std::string> names;
  for (const Value& e : arr->array) {
    if (!e.is_object()) {
      ctx.diag(Code::SpecBadType, "\"points\" entries must be objects",
               e.offset);
      continue;
    }
    check_keys(ctx, e, {"name", "vdd", "temp_c", "tcyc", "duty"}, "point");
    StressPoint p;
    p.condition = stress::nominal_condition();
    const Value* name = member(ctx, e, "name", Value::Kind::String,
                               "a string", /*required=*/true, "point");
    if (name == nullptr) continue;
    p.name = name->string;
    if (p.name.empty() || !names.insert(p.name).second) {
      ctx.diag(Code::SpecBadValue,
               "point name \"" + p.name + "\" must be non-empty and unique",
               name->offset);
      continue;
    }
    number_in(ctx, e, "vdd", 0.5, 10.0, &p.condition.vdd, "point");
    number_in(ctx, e, "temp_c", -60.0, 150.0, &p.condition.temp_c, "point");
    number_in(ctx, e, "tcyc", 1e-9, 1e-3, &p.condition.tcyc, "point");
    number_in(ctx, e, "duty", 0.05, 0.95, &p.condition.duty, "point");
    spec->points.push_back(std::move(p));
  }
}

void parse_analyses(SpecCtx& ctx, const Value& root, CampaignSpec* spec) {
  const Value* arr = member(ctx, root, "analyses", Value::Kind::Array,
                            "an array", /*required=*/false, "spec");
  if (arr == nullptr) {
    spec->analyses = {UnitKind::Border};
    return;
  }
  std::set<std::string> seen;
  for (const Value& e : arr->array) {
    if (!e.is_string()) {
      ctx.diag(Code::SpecBadType, "\"analyses\" entries must be strings",
               e.offset);
      continue;
    }
    UnitKind kind;
    if (e.string == "border") kind = UnitKind::Border;
    else if (e.string == "planes") kind = UnitKind::Planes;
    else if (e.string == "optimize") kind = UnitKind::Optimize;
    else {
      ctx.diag(Code::SpecBadValue,
               "unknown analysis \"" + e.string +
                   "\" (expected border|planes|optimize)",
               e.offset);
      continue;
    }
    if (!seen.insert(e.string).second) {
      ctx.diag(Code::SpecBadValue, "duplicate analysis \"" + e.string + "\"",
               e.offset);
      continue;
    }
    spec->analyses.push_back(kind);
  }
  if (spec->analyses.empty() && !ctx.failed)
    ctx.diag(Code::SpecBadValue, "\"analyses\" must not be empty",
             arr->offset);
}

}  // namespace

std::optional<CampaignSpec> parse_spec(const std::string& text,
                                       VerifyReport* report) {
  SpecCtx ctx{text, report};
  Value root;
  try {
    root = util::json::parse(text);
  } catch (const util::json::ParseError& e) {
    ctx.diag(Code::SpecParse, e.what(), e.offset());
    return std::nullopt;
  }
  if (!root.is_object()) {
    ctx.diag(Code::SpecBadType, "campaign spec must be a JSON object",
             root.offset);
    return std::nullopt;
  }
  check_keys(ctx, root,
             {"name", "defects", "points", "analyses", "planes", "settings",
              "surrogate", "retry"},
             "spec");

  CampaignSpec spec;
  const Value* name = member(ctx, root, "name", Value::Kind::String,
                             "a string", /*required=*/true, "spec");
  if (name != nullptr) {
    spec.name = name->string;
    if (spec.name.empty())
      ctx.diag(Code::SpecBadValue, "\"name\" must not be empty",
               name->offset);
  }
  parse_defects(ctx, root, &spec);
  parse_points(ctx, root, &spec);
  parse_analyses(ctx, root, &spec);

  if (const Value* planes = member(ctx, root, "planes", Value::Kind::Object,
                                   "an object", /*required=*/false, "spec")) {
    check_keys(ctx, *planes, {"r_points", "ops_per_point"}, "\"planes\"");
    double r_points = spec.plane_r_points;
    double ops = spec.plane_ops_per_point;
    number_in(ctx, *planes, "r_points", 2, 512, &r_points, "\"planes\"");
    number_in(ctx, *planes, "ops_per_point", 1, 16, &ops, "\"planes\"");
    spec.plane_r_points = static_cast<int>(r_points);
    spec.plane_ops_per_point = static_cast<int>(ops);
  }
  if (const Value* st = member(ctx, root, "settings", Value::Kind::Object,
                               "an object", /*required=*/false, "spec")) {
    check_keys(ctx, *st, {"adaptive", "lte_tol", "dt", "reuse_jacobian"},
               "\"settings\"");
    // Retired: `true` (what older run directories recorded) loads as a
    // no-op; `false` asked for the deleted fixed-step engine.
    bool adaptive = true;
    flag_in(ctx, *st, "adaptive", &adaptive, "\"settings\"");
    if (!adaptive)
      ctx.diag(Code::SpecBadValue,
               "\"settings\" field \"adaptive\": fixed-step column "
               "simulation was removed; every run is adaptive (drop the key)",
               st->find("adaptive")->offset);
    flag_in(ctx, *st, "reuse_jacobian", &spec.settings.reuse_jacobian,
            "\"settings\"");
    number_in(ctx, *st, "lte_tol", 1e-8, 1.0, &spec.settings.lte_tol,
              "\"settings\"");
    number_in(ctx, *st, "dt", 1e-13, 1e-6, &spec.settings.dt, "\"settings\"");
  }
  if (const Value* sg = member(ctx, root, "surrogate", Value::Kind::Object,
                               "an object", /*required=*/false, "spec")) {
    // Retired: {"enabled": true, "tol": 0.02} (what older run directories
    // recorded) loads as a no-op; anything else asked for a search switch
    // or a separate tolerance that no longer exist.
    check_keys(ctx, *sg, {"enabled", "tol"}, "\"surrogate\"");
    bool enabled = true;
    flag_in(ctx, *sg, "enabled", &enabled, "\"surrogate\"");
    if (!enabled)
      ctx.diag(Code::SpecBadValue,
               "\"surrogate\" field \"enabled\": the classic-only border "
               "search was removed; every search is surrogate-first with a "
               "classic fallback (drop the block)",
               sg->find("enabled")->offset);
    const Value* tol = member(ctx, *sg, "tol", Value::Kind::Number,
                              "a number", /*required=*/false, "\"surrogate\"");
    if (tol != nullptr && tol->number != 0.02)
      ctx.diag(Code::SpecBadValue,
               "\"surrogate\" field \"tol\": the separate surrogate "
               "tolerance was removed; border searches use the fixed ln(R) "
               "tolerance 0.02 (drop the block)",
               tol->offset);
  }
  if (const Value* rt = member(ctx, root, "retry", Value::Kind::Object,
                               "an object", /*required=*/false, "spec")) {
    check_keys(ctx, *rt, {"max_attempts", "timeout_s", "damping_backoff"},
               "\"retry\"");
    double attempts = spec.retry.max_attempts;
    number_in(ctx, *rt, "max_attempts", 1, 16, &attempts, "\"retry\"");
    spec.retry.max_attempts = static_cast<int>(attempts);
    number_in(ctx, *rt, "timeout_s", 0.0, 86400.0, &spec.retry.timeout_s,
              "\"retry\"");
    number_in(ctx, *rt, "damping_backoff", 0.05, 1.0,
              &spec.retry.damping_backoff, "\"retry\"");
  }

  if (ctx.failed) return std::nullopt;
  return spec;
}

std::optional<CampaignSpec> load_spec(const std::string& path,
                                      VerifyReport* report) {
  std::ifstream f(path);
  if (!f.good()) {
    Diagnostic d;
    d.code = Code::SpecParse;
    d.severity = Severity::Error;
    d.message = "cannot read campaign spec " + path;
    report->add(d);
    return std::nullopt;
  }
  std::ostringstream text;
  text << f.rdbuf();
  return parse_spec(text.str(), report);
}

std::string spec_json(const CampaignSpec& spec) {
  util::json::Writer w;
  w.begin_object();
  w.key("name").value(spec.name);
  w.key("defects").begin_array();
  for (const defect::Defect& d : spec.defects) w.value(defect_token(d));
  w.end_array();
  w.key("points").begin_array();
  for (const StressPoint& p : spec.points) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("vdd").value(p.condition.vdd);
    w.key("temp_c").value(p.condition.temp_c);
    w.key("tcyc").value(p.condition.tcyc);
    w.key("duty").value(p.condition.duty);
    w.end_object();
  }
  w.end_array();
  w.key("analyses").begin_array();
  for (const UnitKind k : spec.analyses) w.value(to_string(k));
  w.end_array();
  w.key("planes").begin_object();
  w.key("r_points").value(spec.plane_r_points);
  w.key("ops_per_point").value(spec.plane_ops_per_point);
  w.end_object();
  w.key("settings").begin_object();
  w.key("lte_tol").value(spec.settings.lte_tol);
  w.key("dt").value(spec.settings.dt);
  w.key("reuse_jacobian").value(spec.settings.reuse_jacobian);
  w.end_object();
  w.key("retry").begin_object();
  w.key("max_attempts").value(spec.retry.max_attempts);
  w.key("timeout_s").value(spec.retry.timeout_s);
  w.key("damping_backoff").value(spec.retry.damping_backoff);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace dramstress::campaign
