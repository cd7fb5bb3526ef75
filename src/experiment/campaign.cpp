#include "experiment/campaign.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "core/hash.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "topology/load.hpp"

namespace autonet::experiment {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) {
    if (token.starts_with('#')) break;
    tokens.push_back(std::move(token));
  }
  return tokens;
}

bool parse_bool(const std::string& v) {
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  throw CampaignError("campaign: expected on/off, got '" + v + "'");
}

std::int64_t parse_int(const std::string& v) {
  try {
    std::size_t pos = 0;
    const std::int64_t n = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    throw CampaignError("campaign: expected an integer, got '" + v + "'");
  }
}

// The swept/fixable knobs. Each key validates its values at parse time
// (a typo fails the spec, not run #37 of the matrix) and knows how to
// apply itself to a RunSpec during expansion.
struct KnobDef {
  const char* key;
  void (*validate)(const std::string&);
  void (*apply)(RunSpec&, const std::string&);
};

const KnobDef kKnobs[] = {
    {"topology", [](const std::string&) {},
     [](RunSpec& run, const std::string& v) { run.topology = v; }},
    {"ibgp",
     [](const std::string& v) {
       if (v != "mesh" && v != "rr" && v != "rr-auto") {
         throw CampaignError("campaign: ibgp must be mesh|rr|rr-auto, got '" +
                             v + "'");
       }
     },
     [](RunSpec& run, const std::string& v) { run.workflow.ibgp = v; }},
    {"platform", [](const std::string&) {},
     [](RunSpec& run, const std::string& v) { run.workflow.platform = v; }},
    {"isis", [](const std::string& v) { parse_bool(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.enable_isis = parse_bool(v);
     }},
    {"dns", [](const std::string& v) { parse_bool(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.enable_dns = parse_bool(v);
     }},
    {"ospf_cost", [](const std::string& v) { parse_int(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.ospf.default_cost = parse_int(v);
     }},
    {"rr_per_as", [](const std::string& v) { parse_int(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.rr_select.per_as = static_cast<std::size_t>(parse_int(v));
     }},
    {"backoff_base_ms", [](const std::string& v) { parse_int(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.deploy.backoff_base_ms = static_cast<int>(parse_int(v));
     }},
    {"max_transfer_attempts", [](const std::string& v) { parse_int(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.deploy.max_transfer_attempts = static_cast<int>(parse_int(v));
     }},
    {"max_boot_attempts", [](const std::string& v) { parse_int(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.deploy.max_boot_attempts = static_cast<int>(parse_int(v));
     }},
    {"allow_partial", [](const std::string& v) { parse_bool(v); },
     [](RunSpec& run, const std::string& v) {
       run.workflow.deploy.allow_partial = parse_bool(v);
     }},
};

const KnobDef* find_knob(const std::string& key) {
  for (const KnobDef& knob : kKnobs) {
    if (key == knob.key) return &knob;
  }
  return nullptr;
}

}  // namespace

std::size_t CampaignSpec::run_count() const {
  std::size_t cells = 1;
  for (const Axis& axis : axes) cells *= axis.values.size();
  return cells * static_cast<std::size_t>(repetitions);
}

CampaignSpec parse_campaign(std::string_view text) {
  CampaignSpec spec;
  std::set<std::string> seen_axes;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& verb = tokens[0];
    auto fail = [&](const std::string& why) {
      throw CampaignError("campaign line " + std::to_string(line_no) + ": " +
                          why);
    };
    if (verb == "campaign") {
      if (tokens.size() != 2) fail("campaign expects a name");
      spec.name = tokens[1];
    } else if (verb == "topology") {
      if (tokens.size() != 2) fail("topology expects one spec");
      spec.topology = tokens[1];
    } else if (verb == "repetitions") {
      if (tokens.size() != 2) fail("repetitions expects a count");
      spec.repetitions = static_cast<int>(parse_int(tokens[1]));
      if (spec.repetitions < 1) fail("repetitions must be >= 1");
    } else if (verb == "seed") {
      if (tokens.size() != 2) fail("seed expects an integer");
      spec.seed = static_cast<std::uint64_t>(parse_int(tokens[1]));
    } else if (verb == "jobs") {
      if (tokens.size() != 2) fail("jobs expects a count");
      spec.jobs = static_cast<int>(parse_int(tokens[1]));
      if (spec.jobs < 0) fail("jobs must be >= 0");
    } else if (verb == "axis") {
      if (tokens.size() < 3) fail("axis expects a key and values");
      Axis axis;
      axis.key = tokens[1];
      const KnobDef* knob = find_knob(axis.key);
      if (knob == nullptr) fail("unknown axis key '" + axis.key + "'");
      if (!seen_axes.insert(axis.key).second) {
        fail("duplicate axis '" + axis.key + "'");
      }
      if (tokens.size() >= 5 && tokens[2] == "range") {
        // axis <key> range <lo> <hi> [step <s>]
        const std::int64_t lo = parse_int(tokens[3]);
        const std::int64_t hi = parse_int(tokens[4]);
        std::int64_t step = 1;
        if (tokens.size() == 7 && tokens[5] == "step") {
          step = parse_int(tokens[6]);
        } else if (tokens.size() != 5) {
          fail("axis range syntax: range <lo> <hi> [step <s>]");
        }
        if (step < 1 || hi < lo) fail("axis range must ascend with step >= 1");
        for (std::int64_t v = lo; v <= hi; v += step) {
          axis.values.push_back(std::to_string(v));
        }
      } else {
        axis.values.assign(tokens.begin() + 2, tokens.end());
      }
      for (const std::string& value : axis.values) knob->validate(value);
      spec.axes.push_back(std::move(axis));
    } else if (verb == "option") {
      if (tokens.size() != 3) fail("option expects a key and a value");
      const KnobDef* knob = find_knob(tokens[1]);
      if (knob == nullptr) fail("unknown option key '" + tokens[1] + "'");
      knob->validate(tokens[2]);
      spec.options.emplace_back(tokens[1], tokens[2]);
    } else if (verb == "incident") {
      // Delegate verb/arity checking to the incident parser.
      std::string step_line;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (i > 1) step_line += ' ';
        step_line += tokens[i];
      }
      try {
        auto steps = emulation::parse_incident_script(step_line);
        spec.incident.insert(spec.incident.end(), steps.begin(), steps.end());
      } catch (const emulation::IncidentError& e) {
        fail(e.what());
      }
    } else if (verb == "probe") {
      if (tokens.size() == 2 && tokens[1] == "reachability") {
        spec.probes.push_back({"reachability", "", ""});
      } else if (tokens.size() == 4 && tokens[1] == "traceroute") {
        spec.probes.push_back({"traceroute", tokens[2], tokens[3]});
      } else {
        fail("probe expects 'reachability' or 'traceroute <src> <dst>'");
      }
    } else {
      fail("unknown directive '" + verb + "'");
    }
  }
  if (spec.name.empty()) throw CampaignError("campaign: missing 'campaign <name>'");
  return spec;
}

CampaignSpec load_campaign_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw CampaignError("campaign: cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_campaign(text.str());
}

std::vector<RunSpec> expand(const CampaignSpec& spec) {
  std::vector<RunSpec> runs;
  runs.reserve(spec.run_count());
  // Odometer over the axes (axis-major order, repetition innermost):
  // the matrix order — and therefore every run id and seed — is a pure
  // function of the spec.
  std::vector<std::size_t> odometer(spec.axes.size(), 0);
  const std::size_t cells = spec.axes.empty() ? 1
                                              : [&] {
                                                  std::size_t n = 1;
                                                  for (const Axis& a : spec.axes)
                                                    n *= a.values.size();
                                                  return n;
                                                }();
  for (std::size_t cell = 0; cell < cells; ++cell) {
    for (int rep = 0; rep < spec.repetitions; ++rep) {
      RunSpec run;
      run.index = runs.size();
      run.repetition = rep;
      run.topology = spec.topology;
      for (const auto& [key, value] : spec.options) {
        find_knob(key)->apply(run, value);
      }
      std::string id;
      for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        const Axis& axis = spec.axes[a];
        const std::string& value = axis.values[odometer[a]];
        find_knob(axis.key)->apply(run, value);
        run.axis_values.emplace_back(axis.key, value);
        if (!id.empty()) id += ',';
        id += axis.key + "=" + value;
      }
      if (id.empty()) id = "base";
      run.id = id + "/rep" + std::to_string(rep);
      run.seed = fnv1a(run.id, fnv1a(spec.name) ^ spec.seed);
      run.workflow.deploy.backoff_seed = run.seed;
      runs.push_back(std::move(run));
    }
    // Advance the odometer (last axis fastest).
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++odometer[a] < spec.axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  return runs;
}

graph::Graph resolve_topology(const std::string& spec) {
  if (spec == "figure5") return topology::figure5();
  if (spec == "small-internet") return topology::small_internet();
  if (spec == "bad-gadget") return topology::bad_gadget();
  if (spec == "nren") return topology::make_nren_model();
  const auto colon = spec.find(':');
  if (colon != std::string::npos) {
    const std::string kind = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);
    auto size = [&](const std::string& v) {
      const std::int64_t n = parse_int(v);
      if (n < 1) throw CampaignError("topology size must be >= 1: " + spec);
      return static_cast<std::size_t>(n);
    };
    if (kind == "line") return topology::make_line(size(arg));
    if (kind == "ring") return topology::make_ring(size(arg));
    if (kind == "star") return topology::make_star(size(arg));
    if (kind == "mesh") return topology::make_full_mesh(size(arg));
    if (kind == "grid") {
      const auto x = arg.find('x');
      if (x == std::string::npos) {
        throw CampaignError("grid topology expects WxH: " + spec);
      }
      return topology::make_grid(size(arg.substr(0, x)), size(arg.substr(x + 1)));
    }
    if (kind == "multi-as") {
      topology::MultiAsOptions opts;
      opts.as_count = size(arg);
      return topology::make_multi_as(opts);
    }
    throw CampaignError("unknown topology generator '" + kind + "' in " + spec);
  }
  return topology::load_topology_file(spec);
}

}  // namespace autonet::experiment
