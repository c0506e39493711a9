#include "core/saturation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

class SaturationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
    index_ = std::make_unique<MasterIndex>(rules_, dm_);
    sat_ = std::make_unique<Saturator>(rules_, dm_, *index_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
};

TEST_F(SaturationTest, T1FromZipFixesGeoAttributes) {
  // Example 12: validating zip alone lets phi1/phi2/phi3 fix AC, str, city.
  Tuple t1 = T1(r_);
  SaturationResult result = sat_->Saturate(t1, Attrs(r_, {"zip"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "AC")).as_string(), "131");
  EXPECT_EQ(result.fixed.at(A(r_, "str")).as_string(), "51 Elm Row");
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Edi");
  EXPECT_EQ(result.covered, Attrs(r_, {"zip", "AC", "str", "city"}));
}

TEST_F(SaturationTest, T1FromZipPhnTypeIsUniqueNotCertain) {
  // Example 8: (Zzm = {zip, phn, type}) gives a unique fix for t1 but the
  // covered set misses item (master data has no item information).
  Tuple t1 = T1(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t1, Attrs(r_, {"zip", "phn", "type"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "fn")).as_string(), "Robert");
  EXPECT_FALSE(result.covered.Contains(A(r_, "item")));
  EXPECT_FALSE(result.CertainOver(r_));
}

TEST_F(SaturationTest, T1FullRegionIsCertain) {
  // Example 9: adding item gives the certain region Zzmi.
  Tuple t1 = T1(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t1, Attrs(r_, {"zip", "phn", "type", "item"}));
  EXPECT_TRUE(result.unique);
  EXPECT_TRUE(result.CertainOver(r_));
  EXPECT_EQ(result.fixed, T1Truth(r_));
}

TEST_F(SaturationTest, T3ConflictDetected) {
  // Example 5/10: t3's AC (belonging to s2's home phone) and zip (s1)
  // suggest different cities -> no unique fix when both are validated.
  Tuple t3 = T3(r_);
  SaturationResult result = sat_->CheckUniqueFix(
      t3, Attrs(r_, {"AC", "phn", "type", "zip"}));
  EXPECT_FALSE(result.unique);
  ASSERT_FALSE(result.conflicts.empty());
  bool city_conflict = false;
  for (const FixConflict& c : result.conflicts) {
    if (c.attr == A(r_, "city")) city_conflict = true;
  }
  EXPECT_TRUE(city_conflict);
}

TEST_F(SaturationTest, T3WithoutZipIsUnique) {
  // Example 6: validating only (AC, phn, type) gives the unique fix via
  // (phi6-8, s2).
  Tuple t3 = T3(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t3, Attrs(r_, {"AC", "phn", "type"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Lnd");
  EXPECT_EQ(result.fixed.at(A(r_, "zip")).as_string(), "NW1 6XE");
}

TEST_F(SaturationTest, T4NothingApplies) {
  // Example 5: no rules/master tuples apply to t4 at all.
  Tuple t4 = T4(r_);
  SaturationResult result = sat_->Saturate(t4, Attrs(r_, {"zip", "AC"}));
  EXPECT_TRUE(result.unique);
  EXPECT_TRUE(result.steps.empty());
  EXPECT_EQ(result.covered, Attrs(r_, {"zip", "AC"}));
}

TEST_F(SaturationTest, ValidatedAttrsAreProtected) {
  // t1[AC] = 020 validated: phi1 must NOT overwrite it (B in Z), and the
  // cross-round analysis must not flag it either (the only proposer needs
  // AC unset... which the exclusion run provides, detecting the 131-vs-020
  // difference as a potential conflict only if 020 could also be derived).
  Tuple t1 = T1(r_);
  SaturationResult result =
      sat_->Saturate(t1, Attrs(r_, {"zip", "AC"}));
  EXPECT_EQ(result.fixed.at(A(r_, "AC")).as_string(), "020");
}

TEST_F(SaturationTest, ChainedFiring) {
  // t2 (Example 2): validating (type, AC, phn) lets phi6-8 fire. In this
  // fixture t2[AC, phn] = (020, 6884563) matches s2's (AC, Hphn), so the
  // repair enriches t2[str, zip] and corrects the inconsistent t2[city]
  // (AC 020 implies Lnd, not Edi) with s2's values. The newly validated
  // zip then enables phi1-3, whose targets are already protected.
  Tuple t2 = T2(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t2, Attrs(r_, {"type", "AC", "phn"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "str")).as_string(), "20 Baker St.");
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Lnd");
  EXPECT_EQ(result.fixed.at(A(r_, "zip")).as_string(), "NW1 6XE");
}

TEST_F(SaturationTest, ExcludedRunsAgreeOnTheirTarget) {
  // From zip alone, the city-excluded run sees only phi3 propose city, so
  // the check is unique and city is fixed by phi3 to s1's "Edi".
  Tuple t1 = T1(r_);
  SaturationResult result = sat_->CheckUniqueFix(t1, Attrs(r_, {"zip"}));
  EXPECT_TRUE(result.unique);
  EXPECT_TRUE(result.conflicts.empty());
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Edi");
  bool city_step = false;
  for (const FixMove& m : result.steps) {
    if (m.attr != A(r_, "city")) continue;
    city_step = true;
    EXPECT_EQ(rules_.at(m.rule_idx).name(), "phi3");
    EXPECT_EQ(m.value.as_string(), "Edi");
  }
  EXPECT_TRUE(city_step);
}

// Probe-log invariants over every fixture tuple and a spread of Z0s.
std::vector<std::vector<std::string>> TrustedSets() {
  return {{"zip"},
          {"zip", "phn", "type"},
          {"zip", "phn", "type", "item"},
          {"AC", "phn", "type"},
          {"AC", "phn", "type", "zip"},
          {"type", "AC", "phn"}};
}

TEST_F(SaturationTest, ProbeLogHasNoDuplicateHashes) {
  for (const Tuple& t : {T1(r_), T2(r_), T3(r_), T4(r_)}) {
    for (const auto& names : TrustedSets()) {
      ProbeLog log;
      sat_->CheckUniqueFix(t, Attrs(r_, names), nullptr, &log);
      EXPECT_FALSE(log.hashes.empty()) << t.ToString();
      std::vector<uint64_t> sorted = log.hashes;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end())
          << t.ToString();
    }
  }
}

TEST_F(SaturationTest, AbsentKeyIsRecordedOnce) {
  // A dirty zip the master lacks: phi1-phi3 probe it, get nothing, and
  // probe it again every round of every run. Each (rule, key) must still
  // land in the log exactly once, so a master insert of that zip can
  // find the tuple.
  Tuple t = T1(r_);
  t.Set(A(r_, "zip"), Value::Str("ZZ9 9ZZ"));
  ProbeLog log;
  SaturationResult result =
      sat_->CheckUniqueFix(t, Attrs(r_, {"zip", "phn", "type"}), nullptr,
                           &log);
  EXPECT_TRUE(result.unique);
  const std::vector<uint64_t> zip_hash = {Value::Str("ZZ9 9ZZ").Hash()};
  for (size_t rule = 0; rule < 3; ++rule) {
    EXPECT_EQ(std::count(log.hashes.begin(), log.hashes.end(),
                         ProbeKeyHash(rule, zip_hash)),
              1)
        << rules_.at(rule).name();
  }
}

void ExpectSameResult(const SaturationResult& a, const SaturationResult& b) {
  EXPECT_EQ(a.fixed, b.fixed);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.unique, b.unique);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t k = 0; k < a.steps.size(); ++k) {
    EXPECT_EQ(a.steps[k].rule_idx, b.steps[k].rule_idx);
    EXPECT_EQ(a.steps[k].master_idx, b.steps[k].master_idx);
    EXPECT_EQ(a.steps[k].attr, b.steps[k].attr);
    EXPECT_EQ(a.steps[k].value, b.steps[k].value);
  }
  ASSERT_EQ(a.conflicts.size(), b.conflicts.size());
  for (size_t k = 0; k < a.conflicts.size(); ++k) {
    EXPECT_EQ(a.conflicts[k].attr, b.conflicts[k].attr);
    EXPECT_EQ(a.conflicts[k].value_a, b.conflicts[k].value_a);
    EXPECT_EQ(a.conflicts[k].value_b, b.conflicts[k].value_b);
    EXPECT_EQ(a.conflicts[k].rule_a, b.conflicts[k].rule_a);
    EXPECT_EQ(a.conflicts[k].rule_b, b.conflicts[k].rule_b);
  }
}

TEST_F(SaturationTest, NullBridgeEqualsBridgedCheck) {
  // One bridge reused across every check (as BatchRepair shards do), a
  // per-call bridge, and a bridge over unrelated pools (ignored) must all
  // give the same result and the same probe log.
  PoolPtr pool = std::make_shared<ValuePool>();
  PoolBridge shared(pool.get(), dm_.pool().get());
  PoolPtr other = std::make_shared<ValuePool>();
  PoolBridge unrelated(other.get(), dm_.pool().get());
  for (const Tuple& fixture : {T1(r_), T2(r_), T3(r_), T4(r_)}) {
    Tuple t = fixture.RebasedTo(pool);
    for (const auto& names : TrustedSets()) {
      AttrSet z0 = Attrs(r_, names);
      ProbeLog plain_log, shared_log, unrelated_log;
      SaturationResult plain = sat_->CheckUniqueFix(t, z0, nullptr,
                                                    &plain_log);
      SaturationResult bridged =
          sat_->CheckUniqueFix(t, z0, &shared, &shared_log);
      SaturationResult ignored =
          sat_->CheckUniqueFix(t, z0, &unrelated, &unrelated_log);
      ExpectSameResult(plain, bridged);
      ExpectSameResult(plain, ignored);
      EXPECT_EQ(plain_log.hashes, shared_log.hashes);
      EXPECT_EQ(plain_log.hashes, unrelated_log.hashes);
    }
  }
}

TEST(SaturationCrossRoundTest, ConflictNamesBothProposingRules) {
  // phi_b proposes b in round 1; phi_late proposes a different b in
  // round 2, once phi_c has fixed c. The full run never sees phi_late
  // fire (b is already fixed), so only the b-excluded run exposes the
  // conflict — and it must name phi_b and phi_late, not rule #0.
  SchemaPtr r = Schema::Make("R", std::vector<std::string>{"k", "c", "b"});
  SchemaPtr rm =
      Schema::Make("Rm", std::vector<std::string>{"K", "C", "B", "B2"});
  Relation dm(rm);
  ASSERT_TRUE(dm.AppendStrings({"k1", "c1", "x", "y"}).ok());
  Result<RuleSet> rules = ParseRules(R"(
    rule phi_c: (k | K) -> (c | C)
    rule phi_b: (k | K) -> (b | B)
    rule phi_late: (c | C) -> (b | B2)
  )", r, rm);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  MasterIndex index(*rules, dm);
  Saturator sat(*rules, dm, index);
  Result<Tuple> t = Tuple::FromStrings(r, {"k1", "", ""});
  ASSERT_TRUE(t.ok());

  SaturationResult full = sat.Saturate(*t, Attrs(r, {"k"}));
  EXPECT_TRUE(full.unique);
  EXPECT_EQ(full.fixed.at(A(r, "b")).as_string(), "x");

  SaturationResult result = sat.CheckUniqueFix(*t, Attrs(r, {"k"}));
  EXPECT_FALSE(result.unique);
  ASSERT_EQ(result.conflicts.size(), 1u);
  const FixConflict& c = result.conflicts[0];
  EXPECT_EQ(c.attr, A(r, "b"));
  EXPECT_EQ(c.value_a.as_string(), "x");
  EXPECT_EQ(c.value_b.as_string(), "y");
  EXPECT_EQ(rules->at(c.rule_a).name(), "phi_b");
  EXPECT_EQ(rules->at(c.rule_b).name(), "phi_late");
}

TEST_F(SaturationTest, MasterDisagreementIsConflict) {
  // Two master tuples with the same key but different fix values must be
  // reported as non-unique.
  Relation dm2 = dm_;
  Tuple extra = dm_.at(0);
  extra.Set(A(rm_, "city"), Value::Str("Gla"));
  ASSERT_TRUE(dm2.Append(extra).ok());
  MasterIndex index2(rules_, dm2);
  Saturator sat2(rules_, dm2, index2);
  SaturationResult result = sat2.CheckUniqueFix(T1(r_), Attrs(r_, {"zip"}));
  EXPECT_FALSE(result.unique);
}

}  // namespace
}  // namespace certfix
