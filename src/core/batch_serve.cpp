#include "src/core/batch_serve.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/sim_farm.h"
#include "src/corpus/corpus.h"
#include "src/support/buildinfo.h"
#include "src/support/eventlog.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace zeus {

namespace {

metrics::Counter serveRequests("serve-requests");
metrics::Counter serveCompiles("serve-compiles");
metrics::Counter serveCacheHits("serve-cache-hits");

// -- minimal JSON ------------------------------------------------------
// Just enough for the request schema: objects, arrays, strings with the
// common escapes, non-negative integers, true/false/null.  Every failure
// is a positioned message, never an exception.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool boolean = false;
  uint64_t number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

struct JsonParser {
  const std::string& text;
  size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }
  void skipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool consume(char c) {
    skipWs();
    if (pos >= text.size() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }
  bool parseString(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return fail("unterminated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: return fail("unsupported string escape");
        }
      } else {
        out += c;
      }
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }
  bool parseValue(JsonValue& out, int depth) {
    if (depth > 32) return fail("nesting too deep");
    skipWs();
    if (pos >= text.size()) return fail("unexpected end of input");
    char c = text[pos];
    if (c == '{') {
      ++pos;
      out.kind = JsonValue::Kind::Object;
      skipWs();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        std::string key;
        if (!parseString(key)) return false;
        if (!consume(':')) return false;
        JsonValue v;
        if (!parseValue(v, depth + 1)) return false;
        out.fields[key] = std::move(v);
        skipWs();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out.kind = JsonValue::Kind::Array;
      skipWs();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue v;
        if (!parseValue(v, depth + 1)) return false;
        out.items.push_back(std::move(v));
        skipWs();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parseString(out.text);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      out.kind = JsonValue::Kind::Number;
      uint64_t v = 0;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        uint64_t digit = static_cast<uint64_t>(text[pos] - '0');
        if (v > (~uint64_t{0} - digit) / 10) return fail("number too large");
        v = v * 10 + digit;
        ++pos;
      }
      out.number = v;
      return true;
    }
    if (text.compare(pos, 4, "true") == 0) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out.kind = JsonValue::Kind::Bool;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return true;
    }
    return fail("unexpected character");
  }
};

bool parseJson(const std::string& text, JsonValue& out, std::string& error) {
  JsonParser p{text, 0, {}};
  if (!p.parseValue(out, 0)) {
    error = p.error;
    return false;
  }
  p.skipWs();
  if (p.pos != text.size()) {
    error = "trailing characters at byte " + std::to_string(p.pos);
    return false;
  }
  return true;
}

// -- requests ----------------------------------------------------------

struct ServeRequest {
  std::string id;
  std::string example;  ///< corpus entry name, or ...
  std::string source;   ///< ... inline source with
  std::string top;      ///<     an explicit top
  uint64_t cycles = 0;
  size_t lanes = 0;
  size_t threads = 0;
  uint64_t seed = 0;
  int optLevel = 1;
};

bool fieldString(const JsonValue& o, const char* key, std::string& out,
                 std::string& error) {
  const JsonValue* v = o.get(key);
  if (!v) return true;
  if (v->kind != JsonValue::Kind::String) {
    error = std::string("field '") + key + "' must be a string";
    return false;
  }
  out = v->text;
  return true;
}

bool fieldNumber(const JsonValue& o, const char* key, uint64_t& out,
                 std::string& error) {
  const JsonValue* v = o.get(key);
  if (!v) return true;
  if (v->kind != JsonValue::Kind::Number) {
    error = std::string("field '") + key + "' must be a non-negative integer";
    return false;
  }
  out = v->number;
  return true;
}

/// Content hash of what a compile depends on: source text, top name and
/// optimization level.  Two requests with the same hash share one
/// Compilation + elaborated Design + SimGraph.
uint64_t designKey(const std::string& source, const std::string& top,
                   int optLevel) {
  uint64_t h = 0xCBF29CE484222325ull;
  auto fold = [&h](std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001B3ull;
    }
    h ^= 0xFF;
    h *= 0x100000001B3ull;
  };
  fold(source);
  fold(top);
  h ^= static_cast<uint64_t>(optLevel);
  h *= 0x100000001B3ull;
  return h;
}

/// One compiled design, shared across every request with the same key.
/// The Compilation owns everything the Design borrows, and the SimGraph
/// borrows the Design, so member order here is destruction order reversed.
struct CachedDesign {
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<Design> design;
  std::unique_ptr<SimGraph> graph;
  uint64_t designHash = 0;  ///< designContentHash, taken once per compile
  std::string top;
  std::string error;  ///< non-empty = the compile failed (cached too)
};

CachedDesign compileDesign(const std::string& source, const std::string& top,
                           int optLevel) {
  ZEUS_TRACE_SPAN("serve-compile", "serve");
  CachedDesign c;
  c.top = top;
  c.comp = Compilation::fromSource("serve.zeus", source);
  if (!c.comp->ok()) {
    c.error = "compile failed: " + c.comp->diagnosticsText();
    return c;
  }
  c.design = c.comp->elaborate(top);
  if (!c.design) {
    c.error = "elaboration failed: " + c.comp->diagnosticsText();
    return c;
  }
  OptOptions oopts;
  oopts.level = optLevel;
  OptReport rep = c.comp->optimize(*c.design, oopts);
  if (!c.comp->ok()) {
    c.error = "optimization failed: " + c.comp->diagnosticsText();
    return c;
  }
  if (!rep.graph) {
    c.error = "cyclic design: " + c.comp->diagnosticsText();
    return c;
  }
  c.graph = std::move(rep.graph);
  c.designHash = designContentHash(*c.design);
  return c;
}

std::string hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

uint64_t elapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Per-request counter isolation: the delta of every process-wide
/// metrics::Counter across one request, as a JSON object of only the
/// counters that moved.  A long-lived serve loop reports what THIS
/// request did, not the process-cumulative totals.
std::string counterDeltaJson(
    const std::vector<std::pair<std::string, uint64_t>>& before,
    const std::vector<std::pair<std::string, uint64_t>>& after) {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < after.size(); ++i) {
    // Counters only register (never unregister) in a stable order, so
    // `before` is a prefix of `after` name-for-name.
    const uint64_t prev = i < before.size() ? before[i].second : 0;
    if (after[i].second == prev) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + metrics::jsonEscape(after[i].first) +
           "\": " + std::to_string(after[i].second - prev);
  }
  out += "}";
  return out;
}

}  // namespace

std::string runServeBatch(const std::string& requestJson,
                          const ServeOptions& opts, ServeStats* stats) {
  ZEUS_TRACE_SPAN("serve-batch", "serve");
  ServeStats local;
  JsonValue root;
  std::string parseError;
  std::string out = "{\n  \"schema\": \"zeus-serve-v1\",\n";
  out += "  \"build\": " + buildinfo::renderJson() + ",\n";
  if (!parseJson(requestJson, root, parseError) ||
      root.kind != JsonValue::Kind::Object) {
    if (parseError.empty()) parseError = "top level must be an object";
    out += "  \"error\": \"" + metrics::jsonEscape(parseError) + "\",\n";
    out += "  \"requests\": 0, \"compiles\": 0, \"cache_hits\": 0, "
           "\"failures\": 1,\n";
    out += "  \"results\": []\n}\n";
    local.failures = 1;
    if (stats) *stats = local;
    return out;
  }

  const JsonValue* requests = root.get("requests");
  if (!requests || requests->kind != JsonValue::Kind::Array) {
    out += "  \"error\": \"'requests' must be an array\",\n";
    out += "  \"requests\": 0, \"compiles\": 0, \"cache_hits\": 0, "
           "\"failures\": 1,\n";
    out += "  \"results\": []\n}\n";
    local.failures = 1;
    if (stats) *stats = local;
    return out;
  }
  std::vector<const JsonValue*> entries;
  for (const JsonValue& r : requests->items) entries.push_back(&r);

  std::map<uint64_t, CachedDesign> cache;
  std::string results;
  for (size_t i = 0; i < entries.size(); ++i) {
    const JsonValue& e = *entries[i];
    const auto reqT0 = std::chrono::steady_clock::now();
    const auto countersBefore = metrics::Counter::allValues();
    ++local.requests;
    serveRequests.add();

    ServeRequest req;
    req.cycles = opts.defaultCycles;
    req.lanes = opts.defaultLanes;
    req.threads = opts.defaultThreads;
    req.seed = opts.defaultSeed;
    req.optLevel = opts.defaultOptLevel;
    std::string err;
    uint64_t lanes = req.lanes, threads = req.threads;
    uint64_t optLevel = static_cast<uint64_t>(req.optLevel);
    bool ok = e.kind == JsonValue::Kind::Object;
    if (!ok) err = "request must be an object";
    ok = ok && fieldString(e, "id", req.id, err) &&
         fieldString(e, "example", req.example, err) &&
         fieldString(e, "source", req.source, err) &&
         fieldString(e, "top", req.top, err) &&
         fieldNumber(e, "cycles", req.cycles, err) &&
         fieldNumber(e, "lanes", lanes, err) &&
         fieldNumber(e, "threads", threads, err) &&
         fieldNumber(e, "seed", req.seed, err) &&
         fieldNumber(e, "opt", optLevel, err);
    if (ok && optLevel > 1) {
      ok = false;
      err = "field 'opt' must be 0 or 1";
    }
    if (ok && (lanes == 0 || lanes > 65536)) {
      ok = false;
      err = "field 'lanes' must be 1..65536";
    }
    if (ok && (threads == 0 || threads > 256)) {
      ok = false;
      err = "field 'threads' must be 1..256";
    }
    if (ok) {
      req.lanes = static_cast<size_t>(lanes);
      req.threads = static_cast<size_t>(threads);
      req.optLevel = static_cast<int>(optLevel);
    }
    if (req.id.empty()) req.id = "request-" + std::to_string(i);

    // Propagate the request id: every event emitted while this request
    // runs — including from inside the farm workers — carries it.
    eventlog::setRequestId(req.id);
    eventlog::emit(eventlog::Severity::Info, "serve", "request-start", {});

    // Resolve the design selector: a corpus example or inline source.
    if (ok) {
      if (!req.example.empty()) {
        if (!req.source.empty()) {
          ok = false;
          err = "give 'example' or 'source', not both";
        } else if (!corpus::instantiate(req.example, req.source, req.top)) {
          ok = false;
          err = "unknown example '" + req.example + "'";
        }
      } else if (req.source.empty()) {
        ok = false;
        err = "request needs an 'example' or 'source'";
      } else if (req.top.empty()) {
        ok = false;
        err = "inline 'source' needs a 'top'";
      }
    }

    std::string cacheState = "miss";
    CachedDesign* cached = nullptr;
    if (ok) {
      const auto cacheT0 = std::chrono::steady_clock::now();
      const uint64_t key = designKey(req.source, req.top, req.optLevel);
      auto it = cache.find(key);
      if (it == cache.end()) {
        ++local.compiles;
        serveCompiles.add();
        it = cache.emplace(key, compileDesign(req.source, req.top,
                                              req.optLevel))
                 .first;
        local.cacheMissUs.record(elapsedUs(cacheT0));
      } else {
        cacheState = "hit";
        ++local.cacheHits;
        serveCacheHits.add();
        local.cacheHitUs.record(elapsedUs(cacheT0));
      }
      cached = &it->second;
      if (!cached->error.empty()) {
        ok = false;
        err = cached->error;
      }
    }

    std::string line = "    {\"id\": \"" + metrics::jsonEscape(req.id) + "\"";
    if (ok) {
      FarmOptions fopts;
      fopts.threads = req.threads;
      fopts.lanes = req.lanes;
      fopts.cycles = req.cycles;
      fopts.seed = req.seed;
      try {
        FarmReport fr = runFarm(*cached->graph, fopts);
        line += ", \"ok\": true";
        line += ", \"design\": \"" + metrics::jsonEscape(cached->top) + "\"";
        line += ", \"design_hash\": \"" +
                hex(cached->designHash) + "\"";
        line += ", \"cache\": \"" + cacheState + "\"";
        line += ", \"cycles\": " + std::to_string(fr.cycles);
        line += ", \"lanes\": " + std::to_string(fr.lanes);
        line += ", \"blocks\": " + std::to_string(fr.blocks);
        line += ", \"threads\": " + std::to_string(fr.threads);
        line += ", \"checksum\": \"" + hex(fr.mergedChecksum()) + "\"";
        line += ", \"errors\": " + std::to_string(fr.errors.size());
        line += ", \"seconds\": " + fmt(fr.seconds);
        line += ", \"lane_cycles_per_sec\": " + fmt(fr.laneCyclesPerSec());
      } catch (const std::exception& ex) {
        ok = false;
        err = ex.what();
      }
    }
    if (!ok) {
      ++local.failures;
      line += ", \"ok\": false, \"error\": \"" + metrics::jsonEscape(err) +
              "\"";
    }
    const uint64_t reqUs = elapsedUs(reqT0);
    local.requestUs.record(reqUs);
    line += ", \"latency_us\": " + std::to_string(reqUs);
    line += ", \"counters\": " +
            counterDeltaJson(countersBefore, metrics::Counter::allValues());
    line += "}";
    if (!results.empty()) results += ",\n";
    results += line;
    eventlog::emit(eventlog::Severity::Info, "serve", "request-done",
                   {eventlog::boolean("ok", ok),
                    eventlog::str("cache", cacheState),
                    eventlog::num("latency_us", reqUs)});
  }
  eventlog::setRequestId("");
  eventlog::emit(
      eventlog::Severity::Info, "serve", "batch-done",
      {eventlog::num("requests", static_cast<uint64_t>(local.requests)),
       eventlog::num("failures", static_cast<uint64_t>(local.failures)),
       eventlog::num("cache_hits", static_cast<uint64_t>(local.cacheHits)),
       eventlog::num("request_us_p99", local.requestUs.percentile(99))});

  std::vector<histogram::Snapshot> latency;
  latency.push_back(
      histogram::snapshot(local.requestUs, "serve.request_us", "us"));
  latency.push_back(
      histogram::snapshot(local.cacheHitUs, "serve.cache_hit_us", "us"));
  latency.push_back(
      histogram::snapshot(local.cacheMissUs, "serve.cache_miss_us", "us"));
  out += "  \"latency\": " + histogram::renderLatencyBlock(latency, "  ") +
         ",\n";
  out += "  \"requests\": " + std::to_string(local.requests) +
         ", \"compiles\": " + std::to_string(local.compiles) +
         ", \"cache_hits\": " + std::to_string(local.cacheHits) +
         ", \"failures\": " + std::to_string(local.failures) + ",\n";
  out += "  \"results\": [\n" + results + (results.empty() ? "" : "\n") +
         "  ]\n}\n";
  if (stats) *stats = local;
  return out;
}

}  // namespace zeus
