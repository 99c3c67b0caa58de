//===- support/Diagnostics.cpp --------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

using namespace cogent;

const char *cogent::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Unknown:
    return "Unknown";
  case ErrorCode::InvalidSpec:
    return "InvalidSpec";
  case ErrorCode::ExtentOverflow:
    return "ExtentOverflow";
  case ErrorCode::ResourceExhausted:
    return "ResourceExhausted";
  case ErrorCode::BudgetExceeded:
    return "BudgetExceeded";
  case ErrorCode::NoValidConfig:
    return "NoValidConfig";
  case ErrorCode::InvalidDeviceSpec:
    return "InvalidDeviceSpec";
  case ErrorCode::VerificationFailed:
    return "VerificationFailed";
  case ErrorCode::DeadlineExceeded:
    return "DeadlineExceeded";
  case ErrorCode::Overloaded:
    return "Overloaded";
  case ErrorCode::QueueFull:
    return "QueueFull";
  case ErrorCode::ServiceStopped:
    return "ServiceStopped";
  }
  assert(false && "unknown error code");
  return "?";
}

std::optional<ErrorCode> cogent::errorCodeFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumErrorCodes; ++I) {
    ErrorCode Code = static_cast<ErrorCode>(I);
    if (Name == errorCodeName(Code))
      return Code;
  }
  return std::nullopt;
}

bool cogent::isTransient(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Overloaded:
  case ErrorCode::QueueFull:
  case ErrorCode::VerificationFailed:
    return true;
  case ErrorCode::Unknown:
  case ErrorCode::InvalidSpec:
  case ErrorCode::ExtentOverflow:
  case ErrorCode::ResourceExhausted:
  case ErrorCode::BudgetExceeded:
  case ErrorCode::NoValidConfig:
  case ErrorCode::InvalidDeviceSpec:
  case ErrorCode::DeadlineExceeded:
  case ErrorCode::ServiceStopped:
    return false;
  }
  assert(false && "unknown error code");
  return false;
}

Error Error::withContext(std::string Frame) && {
  Context_.insert(Context_.begin(), std::move(Frame));
  return std::move(*this);
}

Error Error::withContext(std::string Frame) const & {
  Error Copy = *this;
  return std::move(Copy).withContext(std::move(Frame));
}

std::string Error::render() const {
  std::string Out;
  for (const std::string &Frame : Context_) {
    Out += Frame;
    Out += ": ";
  }
  Out += Message_;
  return Out;
}

std::string Error::renderWithCode() const {
  return std::string(errorCodeName(Code_)) + ": " + render();
}
