#include "text/dictionary.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "text/edit_distance.h"
#include "util/random.h"

namespace maras::text {
namespace {

Dictionary MakeDict() {
  Dictionary dict;
  dict.AddCanonical("ASPIRIN");
  dict.AddCanonical("WARFARIN");
  dict.AddCanonical("IBUPROFEN");
  dict.AddCanonical("NEXIUM");
  EXPECT_TRUE(dict.AddAlias("COUMADIN", "WARFARIN").ok());
  EXPECT_TRUE(dict.AddAlias("ADVIL", "IBUPROFEN").ok());
  return dict;
}

TEST(DictionaryTest, ExactMatch) {
  Dictionary dict = MakeDict();
  auto match = dict.Resolve("ASPIRIN", 1);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kExact);
  EXPECT_EQ(match.canonical, "ASPIRIN");
}

TEST(DictionaryTest, AliasMatch) {
  Dictionary dict = MakeDict();
  auto match = dict.Resolve("COUMADIN", 1);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kAlias);
  EXPECT_EQ(match.canonical, "WARFARIN");
}

TEST(DictionaryTest, FuzzyMatchOneEdit) {
  Dictionary dict = MakeDict();
  auto match = dict.Resolve("WARFRIN", 1);  // dropped 'A'
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kFuzzy);
  EXPECT_EQ(match.canonical, "WARFARIN");
  EXPECT_EQ(match.distance, 1u);
}

TEST(DictionaryTest, FuzzyTransposition) {
  Dictionary dict = MakeDict();
  auto match = dict.Resolve("NEXUIM", 1);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kFuzzy);
  EXPECT_EQ(match.canonical, "NEXIUM");
}

TEST(DictionaryTest, NoMatchBeyondDistance) {
  Dictionary dict = MakeDict();
  auto match = dict.Resolve("METFORMIN", 1);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kNone);
}

TEST(DictionaryTest, ZeroDistanceDisablesFuzzy) {
  Dictionary dict = MakeDict();
  auto match = dict.Resolve("WARFRIN", 0);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kNone);
}

TEST(DictionaryTest, AddCanonicalIdempotent) {
  Dictionary dict;
  dict.AddCanonical("X");
  dict.AddCanonical("X");
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, AliasEqualCanonicalRejected) {
  Dictionary dict;
  EXPECT_TRUE(dict.AddAlias("A", "A").IsInvalidArgument());
}

TEST(DictionaryTest, AliasRegistersCanonicalImplicitly) {
  Dictionary dict;
  ASSERT_TRUE(dict.AddAlias("TYLENOL", "ACETAMINOPHEN").ok());
  EXPECT_TRUE(dict.Contains("ACETAMINOPHEN"));
  EXPECT_FALSE(dict.Contains("TYLENOL"));  // aliases are not canonical
}

TEST(DictionaryTest, DeterministicTieBreak) {
  Dictionary dict;
  dict.AddCanonical("ABCD");
  dict.AddCanonical("ABCE");
  // "ABCF" is distance 1 from both; the lexicographically smaller wins.
  auto match = dict.Resolve("ABCF", 1);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kFuzzy);
  EXPECT_EQ(match.canonical, "ABCD");
}

TEST(DictionaryTest, PrefersSmallerDistance) {
  Dictionary dict;
  dict.AddCanonical("AAAB");   // distance 2 from query
  dict.AddCanonical("AAAAX");  // distance 1 from query
  auto match = dict.Resolve("AAAAA", 2);
  EXPECT_EQ(match.canonical, "AAAAX");
  EXPECT_EQ(match.distance, 1u);
}

TEST(DictionaryTest, FuzzySearchCrossesLengthBuckets) {
  Dictionary dict;
  dict.AddCanonical("PROGRAF");
  // Query one char longer than the canonical entry.
  auto match = dict.Resolve("PROGRAFF", 1);
  EXPECT_EQ(match.kind, Dictionary::MatchKind::kFuzzy);
  EXPECT_EQ(match.canonical, "PROGRAF");
}

// Resolve() without its length buckets or character-set filter: every
// canonical term is scored.
Dictionary::Match BruteForceResolve(const std::vector<std::string>& terms,
                                    const std::string& query, size_t k) {
  Dictionary::Match match;
  for (const std::string& term : terms) {
    if (term == query) {
      match.canonical = term;
      match.kind = Dictionary::MatchKind::kExact;
      return match;
    }
  }
  if (k == 0) return match;
  for (const std::string& term : terms) {
    size_t d = BoundedDamerauLevenshtein(query, term, k);
    if (d > k) continue;
    if (match.kind == Dictionary::MatchKind::kNone || d < match.distance ||
        (d == match.distance && term < match.canonical)) {
      match.canonical = term;
      match.kind = Dictionary::MatchKind::kFuzzy;
      match.distance = d;
    }
  }
  return match;
}

// Random strings over an alphabet whose bytes collide pairwise in the low
// six bits ('A' and 0x01, 'B' and 0x02, 'a' and '!'), so the folded
// character-set masks cannot tell them apart.
std::string RandomTerm(Rng* rng, size_t max_len) {
  static const std::string kAlphabet = {'A', '\x01', 'B', '\x02', 'a', '!',
                                        'C'};
  std::string term(static_cast<size_t>(rng->Uniform(max_len + 1)), ' ');
  for (char& c : term) c = kAlphabet[rng->Uniform(kAlphabet.size())];
  return term;
}

// Applies `edits` random OSA edits: insertion, deletion, substitution or
// adjacent transposition.
std::string Mutate(Rng* rng, std::string term, int edits) {
  for (int e = 0; e < edits; ++e) {
    const std::string fresh = RandomTerm(rng, 1) + "A";
    const size_t op = static_cast<size_t>(rng->Uniform(4));
    if (term.empty() || op == 0) {
      term.insert(static_cast<size_t>(rng->Uniform(term.size() + 1)), 1,
                  fresh[0]);
    } else if (op == 1) {
      term.erase(static_cast<size_t>(rng->Uniform(term.size())), 1);
    } else if (op == 2) {
      term[static_cast<size_t>(rng->Uniform(term.size()))] = fresh[0];
    } else if (term.size() >= 2) {
      const size_t i = static_cast<size_t>(rng->Uniform(term.size() - 1));
      std::swap(term[i], term[i + 1]);
    }
  }
  return term;
}

TEST(DictionaryOracleTest, ResolveMatchesBruteForceScan) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    Dictionary dict;
    std::vector<std::string> terms;
    std::set<std::string> seen;
    dict.AddCanonical("");
    terms.push_back("");
    seen.insert("");
    while (terms.size() < 150) {
      std::string term = RandomTerm(&rng, 7);
      if (!seen.insert(term).second) continue;
      dict.AddCanonical(term);
      terms.push_back(term);
    }
    std::vector<std::string> queries = {"", "A", "\x01", "!a", "a!"};
    for (int i = 0; i < 300; ++i) queries.push_back(RandomTerm(&rng, 8));
    for (int i = 0; i < 300; ++i) {
      const std::string& base = terms[rng.Uniform(terms.size())];
      queries.push_back(Mutate(&rng, base, 1 + static_cast<int>(i % 3)));
    }
    for (const std::string& query : queries) {
      for (size_t k : {0u, 1u, 2u}) {
        const Dictionary::Match expected = BruteForceResolve(terms, query, k);
        const Dictionary::Match actual = dict.Resolve(query, k);
        ASSERT_EQ(actual.kind, expected.kind)
            << "seed " << seed << " k " << k << " query '" << query << "'";
        EXPECT_EQ(actual.canonical, expected.canonical)
            << "seed " << seed << " k " << k << " query '" << query << "'";
        EXPECT_EQ(actual.distance, expected.distance)
            << "seed " << seed << " k " << k << " query '" << query << "'";
      }
    }
  }
}

}  // namespace
}  // namespace maras::text
