// The guard walk (infer_chain_guards): the two bits a unit campaign's
// fast path refuses chains on — a piece that writes the DONE bit, a piece
// that diverges on an identical rerun — each made true on its own by a
// toy chain. CompiledProgram.GuardBitsEqualTheProbesOnEveryZooChain
// (tests/rtl/evaluator_test.cpp) holds the walk to the def-use probe on
// every zoo chain.
#include <gtest/gtest.h>

#include <functional>

#include "lint/probe.hpp"
#include "fixtures.hpp"

namespace flopsim::lint {
namespace {

using testing::toy_chain;
using testing::toy_contract;

rtl::Piece extra_piece(const char* name,
                       std::function<void(rtl::SignalSet&)> eval) {
  rtl::Piece p;
  p.name = name;
  p.group = "back";
  p.delay_ns = 1.0;
  p.live_bits = 18;
  p.eval = std::move(eval);
  return p;
}

TEST(ChainGuards, APieceThatClearsValidWritesValid) {
  rtl::PieceChain chain = toy_chain();
  chain.push_back(extra_piece("drop", [](rtl::SignalSet& s) {
    if ((s[0] & 1) != 0) s.valid = false;
  }));
  const ChainGuards g = infer_chain_guards(chain, toy_contract(), Options{});
  EXPECT_TRUE(g.writes_valid);
  EXPECT_FALSE(g.nondeterministic);
}

TEST(ChainGuards, AStatefulPieceIsNondeterministic) {
  rtl::PieceChain chain = toy_chain();
  chain.push_back(
      extra_piece("count", [n = fp::u64{0}](rtl::SignalSet& s) mutable {
        s[4] = s[0] + n++;
      }));
  const ChainGuards g = infer_chain_guards(chain, toy_contract(), Options{});
  EXPECT_TRUE(g.nondeterministic);
  EXPECT_FALSE(g.writes_valid);
}

}  // namespace
}  // namespace flopsim::lint
