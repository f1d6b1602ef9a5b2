#ifndef MARAS_UTIL_STATUSOR_H_
#define MARAS_UTIL_STATUSOR_H_

#include <cassert>
#include <optional>
#include <utility>

#include "util/status.h"

namespace maras {

// StatusOr<T> holds either a value of type T or a non-OK Status describing
// why the value is absent. Access to the value when !ok() aborts in debug
// builds (assert), mirroring absl::StatusOr semantics without exceptions.
//
// [[nodiscard]] for the same reason as Status: dropping a StatusOr drops an
// error. Use MARAS_IGNORE_STATUS (util/status.h) for a justified discard.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Constructs from an error status. `status` must not be OK; an OK status
  // without a value is replaced by an Internal error.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed with OK status");
    }
  }

  // Constructs from a value.
  StatusOr(T value)  // NOLINT
      : status_(Status::OK()), value_(std::move(value)) {}

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) noexcept = default;
  StatusOr& operator=(StatusOr&&) noexcept = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the contained value or `fallback` when this holds an error.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// Assigns the value of `rexpr` (a StatusOr expression) to `lhs`, or returns
// its status from the enclosing function on error.
#define MARAS_ASSIGN_OR_RETURN(lhs, rexpr)             \
  MARAS_ASSIGN_OR_RETURN_IMPL_(                        \
      MARAS_STATUS_CONCAT_(_status_or, __LINE__), lhs, rexpr)

#define MARAS_STATUS_CONCAT_INNER_(a, b) a##b
#define MARAS_STATUS_CONCAT_(a, b) MARAS_STATUS_CONCAT_INNER_(a, b)
#define MARAS_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                                 \
  if (!var.ok()) return var.status();                 \
  lhs = std::move(var).value()

}  // namespace maras

#endif  // MARAS_UTIL_STATUSOR_H_
