// Wire protocol of the serving layer: request-line grammar (1-based DIMACS
// vertices), option handling, response rendering (including the multi-line
// payload blocks).
#include <gtest/gtest.h>

#include <string>

#include "core/error.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace smp;
using namespace smp::serve;

TEST(ServeProtocol, ParsesControlVerbs) {
  EXPECT_TRUE(parse_line("quit").quit);
  EXPECT_TRUE(parse_line("shutdown").shutdown);
  EXPECT_EQ(parse_line("ping").req.op, Op::kPing);
  EXPECT_EQ(parse_line("list").req.op, Op::kList);
  EXPECT_EQ(parse_line("stats").req.op, Op::kStats);
  EXPECT_EQ(parse_line("  ping  ").req.op, Op::kPing);  // whitespace-tolerant
}

TEST(ServeProtocol, ParsesOpenVariants) {
  const WireRequest a = parse_line("open g n=100");
  EXPECT_EQ(a.req.op, Op::kOpen);
  EXPECT_EQ(a.req.session, "g");
  EXPECT_EQ(a.req.num_vertices, 100u);
  EXPECT_TRUE(a.req.path.empty());

  const WireRequest b = parse_line("open mesh file=/tmp/x.smpg");
  EXPECT_EQ(b.req.path, "/tmp/x.smpg");
  EXPECT_EQ(b.req.num_vertices, 0u);

  EXPECT_THROW(parse_line("open g"), Error);                 // neither
  EXPECT_THROW(parse_line("open g n=5 file=/tmp/x"), Error); // both
  EXPECT_THROW(parse_line("open g n=0"), Error);
}

TEST(ServeProtocol, ParsesVerticesOneBased) {
  const WireRequest c = parse_line("connected g 1 10");
  EXPECT_EQ(c.req.op, Op::kConnected);
  EXPECT_EQ(c.req.u, 0u);
  EXPECT_EQ(c.req.v, 9u);
  EXPECT_THROW(parse_line("connected g 0 1"), Error);  // 0 is not a vertex

  const WireRequest i = parse_line("insert g 1 2 1.5 3 4 -2.5");
  ASSERT_EQ(i.req.insertions.size(), 2u);
  EXPECT_EQ(i.req.insertions[0].u, 0u);
  EXPECT_EQ(i.req.insertions[0].v, 1u);
  EXPECT_DOUBLE_EQ(i.req.insertions[0].w, 1.5);
  EXPECT_DOUBLE_EQ(i.req.insertions[1].w, -2.5);
  EXPECT_THROW(parse_line("insert g 1 2"), Error);      // weight missing
  EXPECT_THROW(parse_line("insert g 1 2 1.0 3"), Error);

  const WireRequest d = parse_line("delete g 5 6 7 8");
  ASSERT_EQ(d.req.deletions.size(), 2u);
  EXPECT_EQ(d.req.deletions[0].first, 4u);
  EXPECT_EQ(d.req.deletions[1].second, 7u);
  EXPECT_THROW(parse_line("delete g 5"), Error);
}

TEST(ServeProtocol, ParsesDeadlineAndMaxOptions) {
  const WireRequest w = parse_line("weight g deadline=250");
  EXPECT_EQ(w.req.op, Op::kWeight);
  EXPECT_DOUBLE_EQ(w.req.deadline_s, 0.25);
  EXPECT_THROW(parse_line("weight g deadline=0"), Error);
  EXPECT_THROW(parse_line("weight g deadline=-1"), Error);

  const WireRequest e = parse_line("edges g max=5 deadline=100");
  EXPECT_EQ(e.req.limit, 5u);
  EXPECT_DOUBLE_EQ(e.req.deadline_s, 0.1);
  EXPECT_EQ(parse_line("edges g").req.limit, 0u);  // 0 = everything
}

TEST(ServeProtocol, RejectsGarbage) {
  EXPECT_THROW(parse_line(""), Error);
  EXPECT_THROW(parse_line("   "), Error);
  EXPECT_THROW(parse_line("frobnicate g"), Error);
  EXPECT_THROW(parse_line("weight"), Error);
  EXPECT_THROW(parse_line("connected g 1 notanumber"), Error);
  EXPECT_THROW(parse_line("insert g 1 2 nan-ish"), Error);
}

TEST(ServeProtocol, RendersHeaders) {
  Response ok;
  ok.weight = 4.5;
  ok.trees = 7;
  ok.forest_edges = 3;
  ok.live_edges = 3;
  EXPECT_EQ(render_response(Op::kWeight, ok),
            "ok weight=4.5 trees=7 forest=3 live=3\n");

  ok.coalesced = 4;
  EXPECT_EQ(render_response(Op::kInsert, ok),
            "ok applied=1 coalesced=4 weight=4.5 trees=7 forest=3 live=3\n");

  Response conn;
  conn.connected = true;
  EXPECT_EQ(render_response(Op::kConnected, conn), "ok connected=1\n");

  Response err;
  err.status = Status::kDeadlineExceeded;
  err.detail = "too slow";
  EXPECT_EQ(render_response(Op::kWeight, err),
            "err deadline_exceeded too slow\n");
  // A failed write changes nothing, and its error line says so.
  EXPECT_EQ(render_response(Op::kInsert, err),
            "err deadline_exceeded applied=0 too slow\n");
}

TEST(ServeProtocol, RendersPayloadBlocks) {
  Response edges;
  edges.edges.push_back(graph::WEdge{0, 1, 1.5});
  edges.edges_total = 2;
  EXPECT_EQ(render_response(Op::kForestEdges, edges),
            "ok count=1 total=2\ne 1 2 1.5\n.\n");

  Response stats;
  stats.stats_json = "{\"x\": 1}";
  EXPECT_EQ(render_response(Op::kStats, stats), "ok\n{\"x\": 1}\n.\n");

  Response list;
  list.sessions = {"a", "b"};
  EXPECT_EQ(render_response(Op::kList, list), "ok count=2 sessions=a,b\n");
}

TEST(ServeProtocol, ParsesQueryVerbs) {
  const WireRequest pm = parse_line("pathmax g 3 9");
  EXPECT_EQ(pm.req.op, Op::kPathMax);
  EXPECT_EQ(pm.req.session, "g");
  EXPECT_EQ(pm.req.u, 2u);
  EXPECT_EQ(pm.req.v, 8u);
  EXPECT_THROW(parse_line("pathmax g 1"), Error);
  EXPECT_THROW(parse_line("pathmax g 0 2"), Error);  // 1-based

  const WireRequest cn = parse_line("conn g 1 2");
  EXPECT_EQ(cn.req.op, Op::kConn);
  EXPECT_EQ(cn.req.u, 0u);
  EXPECT_EQ(cn.req.v, 1u);

  const WireRequest ct = parse_line("cut g 0.75");
  EXPECT_EQ(ct.req.op, Op::kCut);
  EXPECT_DOUBLE_EQ(ct.req.lambda, 0.75);
  EXPECT_TRUE(ct.req.has_lambda);
  EXPECT_THROW(parse_line("cut g"), Error);
  EXPECT_THROW(parse_line("cut g nan"), Error);

  const WireRequest tk = parse_line("topk g 25");
  EXPECT_EQ(tk.req.op, Op::kTopK);
  EXPECT_EQ(tk.req.limit, 25u);
  EXPECT_FALSE(tk.req.has_lambda);
  const WireRequest tkl = parse_line("topk g 5 lambda=0.5");
  EXPECT_EQ(tkl.req.limit, 5u);
  EXPECT_TRUE(tkl.req.has_lambda);
  EXPECT_DOUBLE_EQ(tkl.req.lambda, 0.5);
  EXPECT_THROW(parse_line("topk g 0"), Error);
  EXPECT_THROW(parse_line("topk g"), Error);
}

TEST(ServeProtocol, RendersQueryResponses) {
  Response conn;
  conn.connected = true;
  conn.index_version = 3;
  EXPECT_EQ(render_response(Op::kConn, conn), "ok connected=1\n");

  Response pm;
  pm.pathmax_found = true;
  pm.pathmax_id = 17;
  pm.pathmax_u = 0;
  pm.pathmax_v = 4;
  pm.pathmax_w = 2.5;
  EXPECT_EQ(render_response(Op::kPathMax, pm),
            "ok connected=1 id=17 u=1 v=5 weight=2.5\n");
  Response disc;
  EXPECT_EQ(render_response(Op::kPathMax, disc), "ok connected=0\n");

  Response cut;
  cut.clusters = 4;
  cut.cut_digest = 0xdeadbeefull;
  EXPECT_EQ(render_response(Op::kCut, cut),
            "ok clusters=4 digest=00000000deadbeef\n");

  Response topk;
  topk.edges.push_back(graph::WEdge{0, 1, 1.5});
  topk.edges.push_back(graph::WEdge{2, 3, 2.0});
  topk.edge_ids = {7, 9};
  EXPECT_EQ(render_response(Op::kTopK, topk),
            "ok count=2\ne 1 2 1.5 id=7\ne 3 4 2 id=9\n.\n");
}

}  // namespace
