#include "snmp/mib.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

namespace netqos::snmp {
namespace {

TEST(MibTree, GetReturnsRegisteredValue) {
  MibTree mib;
  mib.register_constant(Oid({1, 3, 6, 1}), std::int64_t{42});
  const auto value = mib.get(Oid({1, 3, 6, 1}));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, SnmpValue(std::int64_t{42}));
}

TEST(MibTree, GetMissingReturnsNullopt) {
  MibTree mib;
  EXPECT_FALSE(mib.get(Oid({1, 2, 3})).has_value());
}

TEST(MibTree, ProviderEvaluatedAtQueryTime) {
  MibTree mib;
  int counter = 0;
  mib.register_object(Oid({1}), [&counter] {
    return SnmpValue(std::int64_t{++counter});
  });
  EXPECT_EQ(*mib.get(Oid({1})), SnmpValue(std::int64_t{1}));
  EXPECT_EQ(*mib.get(Oid({1})), SnmpValue(std::int64_t{2}));
}

TEST(MibTree, RegistrationReplaces) {
  MibTree mib;
  mib.register_constant(Oid({1}), std::int64_t{1});
  mib.register_constant(Oid({1}), std::int64_t{2});
  EXPECT_EQ(*mib.get(Oid({1})), SnmpValue(std::int64_t{2}));
  EXPECT_EQ(mib.size(), 1u);
}

TEST(MibTree, UnregisterRemoves) {
  MibTree mib;
  mib.register_constant(Oid({1}), std::int64_t{1});
  mib.unregister_object(Oid({1}));
  EXPECT_FALSE(mib.get(Oid({1})).has_value());
}

TEST(MibTree, GetNextWalksLexicographically) {
  MibTree mib;
  mib.register_constant(Oid({1, 1}), std::int64_t{11});
  mib.register_constant(Oid({1, 2}), std::int64_t{12});
  mib.register_constant(Oid({2, 1}), std::int64_t{21});

  auto next = mib.get_next(Oid({1}));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->first, Oid({1, 1}));

  next = mib.get_next(Oid({1, 1}));
  EXPECT_EQ(next->first, Oid({1, 2}));

  next = mib.get_next(Oid({1, 2}));
  EXPECT_EQ(next->first, Oid({2, 1}));

  EXPECT_FALSE(mib.get_next(Oid({2, 1})).has_value());
}

TEST(MibTree, GetNextFromEmptyOidStartsAtFirst) {
  MibTree mib;
  mib.register_constant(Oid({1, 3}), std::int64_t{1});
  const auto next = mib.get_next(Oid{});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->first, Oid({1, 3}));
}

TEST(MibTree, UnregisterSubtreeRemovesOnlySubtree) {
  MibTree mib;
  mib.register_constant(Oid({1, 7, 1}), std::int64_t{1});
  mib.register_constant(Oid({1, 7, 2}), std::int64_t{2});
  mib.register_constant(Oid({1, 8}), std::int64_t{3});
  mib.unregister_subtree(Oid({1, 7}));
  EXPECT_EQ(mib.size(), 1u);
  EXPECT_TRUE(mib.get(Oid({1, 8})).has_value());
}

/// A table provider over a fixed set of rows, counting its lookups.
class FixedTable final : public TableProvider {
 public:
  explicit FixedTable(std::map<Oid, std::int64_t> rows)
      : rows_(std::move(rows)) {}

  std::optional<SnmpValue> get(const Oid& instance) override {
    ++lookups;
    auto it = rows_.find(instance);
    if (it == rows_.end()) return std::nullopt;
    return SnmpValue(it->second);
  }
  std::optional<std::pair<Oid, SnmpValue>> next(const Oid& oid) override {
    ++lookups;
    auto it = rows_.upper_bound(oid);
    if (it == rows_.end()) return std::nullopt;
    return std::make_pair(it->first, SnmpValue(it->second));
  }
  std::size_t size() const override { return rows_.size(); }

  int lookups = 0;

 private:
  std::map<Oid, std::int64_t> rows_;
};

/// Scalars at 1.1.0 and 1.2.0, a table at 1.5 with rows 1.5.1.{1,2,3},
/// and an object after the table at 1.9.0. (MibTree is not movable, so
/// the fixture fills a caller's tree.)
void fill_with_table(MibTree& mib, FixedTable** table_out = nullptr) {
  mib.register_constant(Oid({1, 1, 0}), std::int64_t{10});
  mib.register_constant(Oid({1, 2, 0}), std::int64_t{20});
  mib.register_constant(Oid({1, 9, 0}), std::int64_t{90});
  auto table = std::make_unique<FixedTable>(std::map<Oid, std::int64_t>{
      {Oid({1, 5, 1, 1}), 51}, {Oid({1, 5, 1, 2}), 52},
      {Oid({1, 5, 1, 3}), 53}});
  if (table_out != nullptr) *table_out = table.get();
  mib.register_table(Oid({1, 5}), std::move(table));
}

TEST(MibTree, TableGetInsideAndOutsideSubtree) {
  FixedTable* table = nullptr;
  MibTree mib;
  fill_with_table(mib, &table);
  EXPECT_EQ(*mib.get(Oid({1, 5, 1, 2})), SnmpValue(std::int64_t{52}));
  EXPECT_FALSE(mib.get(Oid({1, 5, 1, 4})).has_value());
  EXPECT_FALSE(mib.get(Oid({1, 5})).has_value());
  const int inside = table->lookups;
  // Lookups outside the table's subtree never reach its provider.
  EXPECT_EQ(*mib.get(Oid({1, 2, 0})), SnmpValue(std::int64_t{20}));
  EXPECT_EQ(*mib.get(Oid({1, 9, 0})), SnmpValue(std::int64_t{90}));
  EXPECT_FALSE(mib.get(Oid({1, 6})).has_value());
  EXPECT_EQ(table->lookups, inside);
  EXPECT_EQ(mib.size(), 6u);
}

TEST(MibTree, GetNextWalksScalarsTableAndTrailingObjects) {
  MibTree mib;
  fill_with_table(mib);
  const std::vector<Oid> expected = {
      Oid({1, 1, 0}),    Oid({1, 2, 0}),    Oid({1, 5, 1, 1}),
      Oid({1, 5, 1, 2}), Oid({1, 5, 1, 3}), Oid({1, 9, 0})};
  std::vector<Oid> walked;
  Oid cursor;
  while (auto next = mib.get_next(cursor)) {
    ASSERT_GT(next->first, cursor);
    cursor = next->first;
    walked.push_back(cursor);
  }
  EXPECT_EQ(walked, expected);
  // A second walk on the same tree starts from the hint the first one
  // left behind (at 1.9.0) and must give the same order.
  std::vector<Oid> rewalked;
  cursor = Oid();
  while (auto next = mib.get_next(cursor)) {
    cursor = next->first;
    rewalked.push_back(cursor);
  }
  EXPECT_EQ(rewalked, expected);
  // Stepping from the hinted scalar crosses into the table, and the
  // trailing object follows the table's last row.
  EXPECT_EQ(mib.get_next(Oid({1, 2, 0}))->first, Oid({1, 5, 1, 1}));
  EXPECT_EQ(mib.get_next(Oid({1, 2, 0}))->first, Oid({1, 5, 1, 1}));
  EXPECT_EQ(mib.get_next(Oid({1, 5, 1, 3}))->first, Oid({1, 9, 0}));
  EXPECT_FALSE(mib.get_next(Oid({1, 9, 0})).has_value());
  EXPECT_EQ(*mib.get_next(Oid({1, 5, 1, 2})),
            std::make_pair(Oid({1, 5, 1, 3}), SnmpValue(std::int64_t{53})));
  // From between rows and from outside the table's subtree.
  EXPECT_EQ(mib.get_next(Oid({1, 5, 0, 7}))->first, Oid({1, 5, 1, 1}));
  EXPECT_EQ(mib.get_next(Oid({1, 3}))->first, Oid({1, 5, 1, 1}));
}

TEST(MibTree, GetNextSkipsEmptyTable) {
  MibTree mib;
  mib.register_constant(Oid({1, 1, 0}), std::int64_t{1});
  mib.register_constant(Oid({1, 9, 0}), std::int64_t{9});
  mib.register_table(Oid({1, 5}), std::make_unique<FixedTable>(
                                      std::map<Oid, std::int64_t>{}));
  mib.register_table(Oid({1, 6}), std::make_unique<FixedTable>(
                                      std::map<Oid, std::int64_t>{
                                          {Oid({1, 6, 2}), 62}}));
  EXPECT_EQ(mib.get_next(Oid({1, 1, 0}))->first, Oid({1, 6, 2}));
  EXPECT_EQ(mib.get_next(Oid({1, 5}))->first, Oid({1, 6, 2}));
  EXPECT_EQ(mib.get_next(Oid({1, 6, 2}))->first, Oid({1, 9, 0}));
  EXPECT_EQ(mib.size(), 3u);
}

TEST(MibTree, TableLastRowIsFollowedByEndOfView) {
  MibTree mib;
  mib.register_constant(Oid({1, 1, 0}), std::int64_t{1});
  mib.register_table(Oid({1, 5}), std::make_unique<FixedTable>(
                                      std::map<Oid, std::int64_t>{
                                          {Oid({1, 5, 1}), 51},
                                          {Oid({1, 5, 2}), 52}}));
  EXPECT_EQ(mib.get_next(Oid({1, 5, 1}))->first, Oid({1, 5, 2}));
  EXPECT_FALSE(mib.get_next(Oid({1, 5, 2})).has_value());
  EXPECT_FALSE(mib.get_next(Oid({2})).has_value());
}

/// Scalars 1.1.0 .. 1.4.0 with value 10 * the second arc.
void fill_scalars(MibTree& mib) {
  for (std::uint32_t arc = 1; arc <= 4; ++arc) {
    mib.register_constant(Oid({1, arc, 0}), std::int64_t{10} * arc);
  }
}

TEST(MibTree, WalkHintSurvivesRegistrationNextToTheHintedObject) {
  MibTree mib;
  fill_scalars(mib);
  ASSERT_EQ(mib.get_next(Oid({1, 1, 0}))->first, Oid({1, 2, 0}));  // hint
  // Just after the hinted OID: the walk must see the newcomer.
  mib.register_constant(Oid({1, 2, 5}), std::int64_t{25});
  EXPECT_EQ(mib.get_next(Oid({1, 2, 0}))->first, Oid({1, 2, 5}));
  // Just before the hinted OID (now 1.2.5): a step from the hint is
  // unchanged, a step from before it finds the newcomer.
  mib.register_constant(Oid({1, 2, 1}), std::int64_t{21});
  EXPECT_EQ(mib.get_next(Oid({1, 2, 5}))->first, Oid({1, 3, 0}));
  EXPECT_EQ(mib.get_next(Oid({1, 2, 0}))->first, Oid({1, 2, 1}));
  EXPECT_EQ(mib.get_next(Oid({1, 2, 1}))->first, Oid({1, 2, 5}));
}

TEST(MibTree, WalkHintSurvivesUnregistrationAroundTheHintedObject) {
  MibTree mib;
  fill_scalars(mib);
  ASSERT_EQ(mib.get_next(Oid({1, 1, 0}))->first, Oid({1, 2, 0}));  // hint
  // Just after the hinted OID: its successor is gone.
  mib.unregister_object(Oid({1, 3, 0}));
  EXPECT_EQ(mib.get_next(Oid({1, 2, 0}))->first, Oid({1, 4, 0}));
  // The hinted object itself (now 1.4.0): the step from its OID falls
  // back to a search instead of following an erased node.
  mib.unregister_object(Oid({1, 4, 0}));
  EXPECT_FALSE(mib.get_next(Oid({1, 4, 0})).has_value());
  ASSERT_EQ(mib.get_next(Oid({1, 1, 0}))->first, Oid({1, 2, 0}));  // hint
  // Just before the hinted OID.
  mib.unregister_subtree(Oid({1, 1}));
  EXPECT_EQ(mib.get_next(Oid({1, 2, 0})), std::nullopt);
  EXPECT_EQ(mib.get_next(Oid())->first, Oid({1, 2, 0}));
  EXPECT_EQ(mib.size(), 1u);
}

TEST(MibTree, AlternatingCursorsMatchAFreshTree) {
  MibTree mib;
  fill_with_table(mib);
  fill_scalars(mib);
  auto fresh_next = [](const Oid& oid) {
    MibTree fresh;
    fill_with_table(fresh);
    fill_scalars(fresh);
    return fresh.get_next(oid);
  };
  // Two interleaved walks, one from the start and one from mid-tree,
  // each overwriting the hint the other relies on.
  Oid a;
  Oid b({1, 2, 0});
  bool a_done = false;
  bool b_done = false;
  int steps = 0;
  while (!(a_done && b_done)) {
    for (Oid* cursor : {&a, &b}) {
      bool& done = cursor == &a ? a_done : b_done;
      if (done) continue;
      const auto expected = fresh_next(*cursor);
      const auto got = mib.get_next(*cursor);
      ASSERT_EQ(got, expected) << "from " << cursor->to_string();
      if (!got.has_value()) {
        done = true;
      } else {
        *cursor = got->first;
      }
      ++steps;
    }
  }
  // a: all 8 instances then end; b: the 6 after 1.2.0 then end.
  EXPECT_EQ(steps, 9 + 7);
}

}  // namespace
}  // namespace netqos::snmp
