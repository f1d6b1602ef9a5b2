#include "util/status.h"

#include <gtest/gtest.h>

#include "util/statusor.h"

namespace maras {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, GovernanceCodesAreDistinctAndNamed) {
  Status cancelled = Status::Cancelled("run cancelled");
  Status deadline = Status::DeadlineExceeded("deadline of 5ms exceeded");
  Status budget = Status::ResourceExhausted("memory budget exhausted");
  EXPECT_FALSE(cancelled.IsDeadlineExceeded());
  EXPECT_FALSE(deadline.IsResourceExhausted());
  EXPECT_FALSE(budget.IsCancelled());
  EXPECT_NE(cancelled.ToString().find("Cancelled"), std::string::npos);
  EXPECT_NE(deadline.ToString().find("DeadlineExceeded"), std::string::npos);
  EXPECT_NE(budget.ToString().find("ResourceExhausted"), std::string::npos);
}

TEST(StatusTest, GovernanceCodesSurviveWithContext) {
  Status s = WithContext(Status::DeadlineExceeded("deadline of 500ms exceeded"),
                         "fp-growth");
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_NE(s.ToString().find("fp-growth: deadline of 500ms exceeded"),
            std::string::npos)
      << s.ToString();
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Corruption("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    MARAS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  auto succeeds = []() -> Status { return Status::OK(); };
  auto wrapper = [&]() -> Status {
    MARAS_RETURN_IF_ERROR(succeeds());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_TRUE(wrapper().IsAlreadyExists());
}

TEST(StatusTest, WithContextPrefixesMessageAndKeepsCode) {
  Status s = WithContext(Status::Corruption("bad rept_cod"),
                         "DEMO12Q3.txt:47");
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "DEMO12Q3.txt:47: bad rept_cod");
  EXPECT_EQ(s.ToString(), "Corruption: DEMO12Q3.txt:47: bad rept_cod");
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(WithContext(Status::OK(), "ctx").ok());
}

TEST(StatusTest, WithContextEmptyContextIsNoop) {
  Status s = WithContext(Status::NotFound("missing"), "");
  EXPECT_EQ(s, Status::NotFound("missing"));
}

TEST(StatusTest, WithContextOnEmptyMessageKeepsContextOnly) {
  Status s = WithContext(Status::IOError(""), "DRUG14Q1.txt");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "DRUG14Q1.txt");
}

TEST(StatusTest, WithContextNests) {
  Status s = Status::Corruption("bad sex code");
  s = WithContext(s, "DEMO14Q1.txt:12");
  s = WithContext(s, "quarter 2014Q1");
  EXPECT_EQ(s.message(), "quarter 2014Q1: DEMO14Q1.txt:12: bad sex code");
}

TEST(StatusTest, ReturnIfErrorCtxWrapsError) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    MARAS_RETURN_IF_ERROR_CTX(fails(), "REAC14Q1.txt");
    return Status::OK();
  };
  Status s = wrapper();
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "REAC14Q1.txt: disk");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, OkStatusBecomesInternalError) {
  StatusOr<int> v = Status::OK();
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInternal());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

// Counts the copies made along its history, so a test can tell a move out
// of a StatusOr from a copy.
struct CopyCounter {
  CopyCounter() = default;
  CopyCounter(const CopyCounter& other) : copies(other.copies + 1) {}
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = default;
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
  int copies = 0;
};

TEST(StatusOrTest, DereferencingAnRvalueMovesTheValueOut) {
  StatusOr<CopyCounter> v = CopyCounter{};
  ASSERT_TRUE(v.ok());
  CopyCounter taken = *std::move(v);
  EXPECT_EQ(taken.copies, 0);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> StatusOr<int> {
    if (fail) return Status::OutOfRange("nope");
    return 10;
  };
  auto outer = [&](bool fail) -> StatusOr<int> {
    MARAS_ASSIGN_OR_RETURN(int x, inner(fail));
    return x * 2;
  };
  ASSERT_TRUE(outer(false).ok());
  EXPECT_EQ(*outer(false), 20);
  EXPECT_TRUE(outer(true).status().IsOutOfRange());
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v = std::string("hello");
  EXPECT_EQ(v->size(), 5u);
}

}  // namespace
}  // namespace maras
