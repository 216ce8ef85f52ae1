#include "serve/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/error.hpp"

namespace smp::serve {

namespace {

[[noreturn]] void bad(const std::string& why) {
  throw Error(ErrorCode::kInvalidInput, why);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) == 0) {
      ++i;
    }
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

std::uint64_t parse_u64(const std::string& tok, const char* what) {
  if (tok.empty() || tok[0] == '-') bad(std::string(what) + ": '" + tok + "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) {
    bad(std::string(what) + ": '" + tok + "'");
  }
  return v;
}

double parse_double(const std::string& tok, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || errno != 0 || end != tok.c_str() + tok.size()) {
    bad(std::string(what) + ": '" + tok + "'");
  }
  return v;
}

/// Wire vertices are 1-based; 0 is the DIMACS "no such vertex".
graph::VertexId parse_vertex(const std::string& tok) {
  const std::uint64_t v = parse_u64(tok, "bad vertex");
  if (v == 0 || v > std::numeric_limits<graph::VertexId>::max()) {
    bad("vertex out of range (wire vertices are 1-based): '" + tok + "'");
  }
  return static_cast<graph::VertexId>(v - 1);
}

bool consume_option(std::vector<std::string>& toks, const std::string& key,
                    std::string* value) {
  // Options are trailing `key=value` tokens; order among them is free.
  for (auto it = toks.begin(); it != toks.end(); ++it) {
    if (it->rfind(key + "=", 0) == 0) {
      *value = it->substr(key.size() + 1);
      toks.erase(it);
      return true;
    }
  }
  return false;
}

std::string need_session(const std::vector<std::string>& toks) {
  if (toks.size() < 2) bad("missing session name");
  return toks[1];
}

std::string fmt_weight(graph::Weight w) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", w);
  return buf;
}

void append_forest_facts(std::string& out, const Response& r) {
  out += " weight=" + fmt_weight(r.weight);
  out += " trees=" + std::to_string(r.trees);
  out += " forest=" + std::to_string(r.forest_edges);
  out += " live=" + std::to_string(r.live_edges);
}

}  // namespace

WireRequest parse_line(const std::string& line) {
  std::vector<std::string> toks = tokenize(line);
  if (toks.empty()) bad("empty request line");

  WireRequest wr;
  std::string opt;
  if (consume_option(toks, "deadline", &opt)) {
    const double ms = parse_double(opt, "bad deadline");
    if (ms <= 0) bad("deadline must be positive milliseconds");
    wr.req.deadline_s = ms / 1000.0;
  }
  if (consume_option(toks, "epoch", &opt)) {
    // MVCC pin for reads/queries: answer from this committed epoch instead
    // of the latest.  Ignored by ops that don't read session state.
    wr.req.pin_epoch = parse_u64(opt, "bad epoch");
  }

  const std::string& verb = toks[0];
  if (verb == "quit") {
    wr.quit = true;
    return wr;
  }
  if (verb == "shutdown") {
    wr.shutdown = true;
    return wr;
  }
  if (verb == "ping") {
    wr.req.op = Op::kPing;
  } else if (verb == "list") {
    wr.req.op = Op::kList;
  } else if (verb == "stats") {
    wr.req.op = Op::kStats;
  } else if (verb == "health") {
    wr.req.op = Op::kHealth;
    if (toks.size() > 2) bad("usage: health [NAME]");
    if (toks.size() == 2) wr.req.session = toks[1];
  } else if (verb == "open") {
    wr.req.op = Op::kOpen;
    wr.req.session = need_session(toks);
    std::string n;
    std::string file;
    const bool has_n = consume_option(toks, "n", &n);
    const bool has_file = consume_option(toks, "file", &file);
    if (has_n == has_file) bad("open needs exactly one of n=N or file=PATH");
    if (has_n) {
      const std::uint64_t v = parse_u64(n, "bad vertex count");
      if (v == 0 || v > std::numeric_limits<graph::VertexId>::max()) {
        bad("vertex count out of range: '" + n + "'");
      }
      wr.req.num_vertices = static_cast<graph::VertexId>(v);
    } else {
      if (file.empty()) bad("empty file path");
      wr.req.path = file;
    }
    if (toks.size() != 2) bad("trailing tokens after open");
  } else if (verb == "drop" || verb == "weight" || verb == "recompute" ||
             verb == "compact") {
    wr.req.op = verb == "drop"        ? Op::kDrop
                : verb == "weight"    ? Op::kWeight
                : verb == "recompute" ? Op::kRecompute
                                      : Op::kCompact;
    wr.req.session = need_session(toks);
    if (toks.size() != 2) bad("trailing tokens after " + verb);
  } else if (verb == "connected") {
    wr.req.op = Op::kConnected;
    wr.req.session = need_session(toks);
    if (toks.size() != 4) bad("usage: connected NAME U V");
    wr.req.u = parse_vertex(toks[2]);
    wr.req.v = parse_vertex(toks[3]);
  } else if (verb == "edges") {
    wr.req.op = Op::kForestEdges;
    wr.req.session = need_session(toks);
    std::string max;
    if (consume_option(toks, "max", &max)) {
      wr.req.limit = parse_u64(max, "bad max");
      if (wr.req.limit == 0) bad("max must be >= 1 (omit it for all edges)");
    }
    if (toks.size() != 2) bad("trailing tokens after edges");
  } else if (verb == "insert") {
    wr.req.op = Op::kInsert;
    wr.req.session = need_session(toks);
    consume_option(toks, "id", &wr.req.idem_id);
    if (toks.size() < 5 || (toks.size() - 2) % 3 != 0) {
      bad("usage: insert NAME U V W [U V W ...]");
    }
    for (std::size_t i = 2; i + 2 < toks.size(); i += 3) {
      graph::WEdge e;
      e.u = parse_vertex(toks[i]);
      e.v = parse_vertex(toks[i + 1]);
      e.w = parse_double(toks[i + 2], "bad weight");
      wr.req.insertions.push_back(e);
    }
  } else if (verb == "pathmax" || verb == "conn") {
    wr.req.op = verb == "pathmax" ? Op::kPathMax : Op::kConn;
    wr.req.session = need_session(toks);
    if (toks.size() != 4) bad("usage: " + verb + " NAME U V");
    wr.req.u = parse_vertex(toks[2]);
    wr.req.v = parse_vertex(toks[3]);
  } else if (verb == "cut") {
    wr.req.op = Op::kCut;
    wr.req.session = need_session(toks);
    if (toks.size() != 3) bad("usage: cut NAME LAMBDA");
    wr.req.lambda = parse_double(toks[2], "bad lambda");
    if (!std::isfinite(wr.req.lambda)) bad("lambda must be finite");
    wr.req.has_lambda = true;
  } else if (verb == "topk") {
    wr.req.op = Op::kTopK;
    wr.req.session = need_session(toks);
    std::string lambda;
    if (consume_option(toks, "lambda", &lambda)) {
      wr.req.lambda = parse_double(lambda, "bad lambda");
      if (!std::isfinite(wr.req.lambda)) bad("lambda must be finite");
      wr.req.has_lambda = true;
    }
    if (toks.size() != 3) bad("usage: topk NAME K [lambda=L]");
    wr.req.limit = parse_u64(toks[2], "bad k");
    if (wr.req.limit == 0 || wr.req.limit > kMaxTopK) {
      bad("k must be in [1, " + std::to_string(kMaxTopK) + "]");
    }
  } else if (verb == "delete") {
    wr.req.op = Op::kDelete;
    wr.req.session = need_session(toks);
    consume_option(toks, "id", &wr.req.idem_id);
    if (toks.size() < 4 || (toks.size() - 2) % 2 != 0) {
      bad("usage: delete NAME U V [U V ...]");
    }
    for (std::size_t i = 2; i + 1 < toks.size(); i += 2) {
      wr.req.deletions.emplace_back(parse_vertex(toks[i]),
                                    parse_vertex(toks[i + 1]));
    }
  } else {
    bad("unknown verb '" + verb + "'");
  }
  return wr;
}

std::string render_response(Op op, const Response& r) {
  if (!r.ok()) {
    std::string out = "err ";
    out += to_string(r.status);
    // A failed write changes nothing, so its error line always says so
    // (the field stays for clients that parse it).
    if (is_write_shaped(op)) out += " applied=0";
    if (!r.detail.empty()) out += " " + r.detail;
    out += "\n";
    return out;
  }
  switch (op) {
    case Op::kPing:
    case Op::kDrop:
      return "ok\n";
    case Op::kList: {
      std::string out = "ok count=" + std::to_string(r.sessions.size());
      out += " sessions=";
      for (std::size_t i = 0; i < r.sessions.size(); ++i) {
        if (i > 0) out += ",";
        out += r.sessions[i];
      }
      return out + "\n";
    }
    case Op::kConnected:
      return std::string("ok connected=") + (r.connected ? "1" : "0") + "\n";
    case Op::kForestEdges: {
      std::string out = "ok count=" + std::to_string(r.edges.size()) +
                        " total=" + std::to_string(r.edges_total) + "\n";
      for (const graph::WEdge& e : r.edges) {
        out += "e " + std::to_string(e.u + 1) + " " + std::to_string(e.v + 1) +
               " " + fmt_weight(e.w) + "\n";
      }
      return out + ".\n";
    }
    case Op::kStats:
      return "ok\n" + r.stats_json + "\n.\n";
    case Op::kHealth: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", r.uptime_s);
      std::string out = "ok queue=" + std::to_string(r.health_queue_depth) +
                        " sessions=" + std::to_string(r.health_sessions) +
                        " lsn=" + std::to_string(r.lsn) + " uptime_s=" + buf;
      // Scale-out gauges: per-shard queue depths, retired MVCC epochs, and
      // the transports currently listening.
      if (!r.shard_depths.empty()) {
        out += " shards=";
        for (std::size_t i = 0; i < r.shard_depths.size(); ++i) {
          if (i > 0) out += ",";
          out += std::to_string(r.shard_depths[i]);
        }
      }
      out += " reclaimed=" + std::to_string(r.reclaimed_epochs);
      if (!r.listeners.empty()) {
        out += " listeners=";
        for (std::size_t i = 0; i < r.listeners.size(); ++i) {
          if (i > 0) out += ",";
          out += r.listeners[i];
        }
      }
      // Per-session status, present when a session was named.
      if (r.index_status) out += " epoch=" + std::to_string(r.epoch);
      if (r.index_status && !r.index_present) out += " index=none";
      if (r.index_present) {
        out += " index_version=" + std::to_string(r.index_version);
        out += std::string(" index_fresh=") + (r.index_fresh ? "1" : "0");
        out += " index_n=" + std::to_string(r.index_vertices);
        out += " index_edges=" + std::to_string(r.index_edges);
        std::snprintf(buf, sizeof buf, "%.3f", r.index_age_s);
        out += std::string(" index_age_s=") + buf;
        std::snprintf(buf, sizeof buf, "%.6f", r.index_build_s);
        out += std::string(" index_build_s=") + buf;
        out += " index_rebuilds=" + std::to_string(r.index_rebuilds);
      }
      return out + "\n";
    }
    case Op::kConn:
      return std::string("ok connected=") + (r.connected ? "1" : "0") + "\n";
    case Op::kPathMax: {
      if (!r.pathmax_found) return "ok connected=0\n";
      return "ok connected=1 id=" + std::to_string(r.pathmax_id) + " u=" +
             std::to_string(r.pathmax_u + 1) + " v=" +
             std::to_string(r.pathmax_v + 1) + " weight=" +
             fmt_weight(r.pathmax_w) + "\n";
    }
    case Op::kCut: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(r.cut_digest));
      return "ok clusters=" + std::to_string(r.clusters) + " digest=" + buf +
             "\n";
    }
    case Op::kTopK: {
      std::string out = "ok count=" + std::to_string(r.edges.size()) + "\n";
      for (std::size_t i = 0; i < r.edges.size(); ++i) {
        const graph::WEdge& e = r.edges[i];
        out += "e " + std::to_string(e.u + 1) + " " + std::to_string(e.v + 1) +
               " " + fmt_weight(e.w) + " id=" + std::to_string(r.edge_ids[i]) +
               "\n";
      }
      return out + ".\n";
    }
    case Op::kInsert:
    case Op::kDelete: {
      std::string out = "ok applied=1 coalesced=" + std::to_string(r.coalesced);
      append_forest_facts(out, r);
      // Durability/idempotency fields only appear when set, so responses
      // from a persistence-free service render exactly as before.
      if (r.dedup) out += " dedup=1";
      if (r.lsn != 0) out += " lsn=" + std::to_string(r.lsn);
      if (!r.idem_id.empty()) out += " id=" + r.idem_id;
      return out + "\n";
    }
    case Op::kRecompute: {
      std::string out = "ok applied=1";
      append_forest_facts(out, r);
      return out + "\n";
    }
    case Op::kCompact: {
      std::string out = "ok applied=1 remapped=" + std::to_string(r.remapped);
      append_forest_facts(out, r);
      if (r.lsn != 0) out += " lsn=" + std::to_string(r.lsn);
      return out + "\n";
    }
    case Op::kOpen:
    case Op::kWeight:
    default: {
      std::string out = "ok";
      append_forest_facts(out, r);
      return out + "\n";
    }
  }
}

}  // namespace smp::serve
