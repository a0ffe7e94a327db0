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
/// and an object after the table at 1.9.0.
MibTree mib_with_table(FixedTable** table_out = nullptr) {
  MibTree mib;
  mib.register_constant(Oid({1, 1, 0}), std::int64_t{10});
  mib.register_constant(Oid({1, 2, 0}), std::int64_t{20});
  mib.register_constant(Oid({1, 9, 0}), std::int64_t{90});
  auto table = std::make_unique<FixedTable>(std::map<Oid, std::int64_t>{
      {Oid({1, 5, 1, 1}), 51}, {Oid({1, 5, 1, 2}), 52},
      {Oid({1, 5, 1, 3}), 53}});
  if (table_out != nullptr) *table_out = table.get();
  mib.register_table(Oid({1, 5}), std::move(table));
  return mib;
}

TEST(MibTree, TableGetInsideAndOutsideSubtree) {
  FixedTable* table = nullptr;
  MibTree mib = mib_with_table(&table);
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
  MibTree mib = mib_with_table();
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

}  // namespace
}  // namespace netqos::snmp
