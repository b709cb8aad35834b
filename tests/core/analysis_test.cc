#include "core/analysis.h"

#include <gtest/gtest.h>

#include "core/conflict.h"
#include "core/grad_matrix.h"

namespace mocograd {
namespace {

using core::ConflictTracker;
using core::GradMatrix;

// Records one step whose task gradients are `rows`.
void Record(ConflictTracker& t, const std::vector<std::vector<float>>& rows) {
  GradMatrix g(static_cast<int>(rows.size()),
               static_cast<int64_t>(rows[0].size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    g.SetRow(static_cast<int>(i), rows[i]);
  }
  t.RecordFromCosines(g.num_tasks(), core::PairwiseCosines(g));
}

TEST(ConflictTrackerTest, CountsConflictsPerPair) {
  ConflictTracker t;
  // Step 1: tasks 0 and 1 conflict; 2 is orthogonal to both.
  Record(t, {{1, 0}, {-1, 0}, {0, 1}});
  // Step 2: no conflicts.
  Record(t, {{1, 0}, {1, 0.5f}, {0, 1}});
  EXPECT_EQ(t.num_steps(), 2);
  EXPECT_EQ(t.num_tasks(), 3);
  EXPECT_DOUBLE_EQ(t.ConflictFrequency(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(t.ConflictFrequency(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.ConflictFrequency(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(t.ConflictFrequency(0, 0), 0.0);
  EXPECT_EQ(t.MostConflictingPair(), (std::pair<int, int>{0, 1}));
}

TEST(ConflictTrackerTest, GcdTraceAndPairMeans) {
  ConflictTracker t;
  Record(t, {{1, 0}, {-1, 0}});  // GCD = 2
  Record(t, {{1, 0}, {0, 1}});   // GCD = 1
  ASSERT_EQ(t.gcd_trace().size(), 2u);
  EXPECT_NEAR(t.gcd_trace()[0], 2.0, 1e-9);
  EXPECT_NEAR(t.gcd_trace()[1], 1.0, 1e-9);
  EXPECT_NEAR(t.MeanPairGcd(0, 1), 1.5, 1e-9);
}

TEST(ConflictTrackerTest, SummaryAndReset) {
  ConflictTracker t;
  Record(t, {{1, 0}, {-1, 0}});
  const std::string s = t.Summary();
  EXPECT_NE(s.find("1 steps, 2 tasks"), std::string::npos);
  EXPECT_NE(s.find("most conflicting pair: (0, 1)"), std::string::npos);
  t.Reset();
  EXPECT_EQ(t.num_steps(), 0);
  EXPECT_EQ(t.MostConflictingPair(), (std::pair<int, int>{-1, -1}));
  // After reset a different task count is accepted.
  Record(t, {{1}, {1}, {1}});
  EXPECT_EQ(t.num_tasks(), 3);
}

TEST(ConflictTrackerTest, TaskCountChangeAborts) {
  ConflictTracker t;
  Record(t, {{1, 0}, {0, 1}});
  EXPECT_DEATH(Record(t, {{1}, {1}, {1}}), "task count changed");
}

TEST(ConflictTrackerTest, QueriesBeforeRecordingAbort) {
  ConflictTracker t;
  EXPECT_DEATH(t.ConflictFrequency(0, 1), "nothing recorded");
}

}  // namespace
}  // namespace mocograd
