#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

/// \file tracer.h
/// \brief The benchmark's own span recorder. It lives outside the program:
/// the benchmark wraps each call it makes into a SLIM layer, keeps spans in
/// memory (one Tracer per thread), and writes them out when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.h"
#include "util/result.h"

namespace perfbench {

/// The Fig. 5 layers on the scenario path, in the benchmark's own order.
enum Layer : uint8_t {
  kDoc,
  kBaseapp,
  kMark,
  kTrim,
  kSlim,
  kDmi,
  kApp,
  kObs,
  kLayerCount
};

inline const char* LayerName(size_t layer) {
  static const char* const kNames[kLayerCount] = {
      "doc", "baseapp", "mark", "trim", "slim", "slimpad.dmi", "slimpad.app",
      "obs"};
  return layer < kLayerCount ? kNames[layer] : "?";
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Process-wide table of span names ("<layer>.<call>").
class SpanNames {
 public:
  static SpanNames& Get() {
    static SpanNames names;
    return names;
  }
  uint16_t Intern(std::string_view name, Layer layer) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i].first == name) return static_cast<uint16_t>(i);
    }
    names_.emplace_back(std::string(name), layer);
    return static_cast<uint16_t>(names_.size() - 1);
  }
  /// Id of `name`, or -1 when no span of that name was ever declared.
  int Find(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i].first == name) return static_cast<int>(i);
    }
    return -1;
  }
  std::vector<std::pair<std::string, Layer>> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Layer>> names_;
};

/// \brief A declared span name: its table id and layer.
struct SpanKind {
  uint16_t id;
  Layer layer;
};

/// Declares (once per call site) the span kind `name` in `layer`.
#define PB_SPAN(layer, name)                                              \
  ([]() -> ::perfbench::SpanKind {                                        \
    static const uint16_t id =                                            \
        ::perfbench::SpanNames::Get().Intern(name, ::perfbench::layer);   \
    return {id, ::perfbench::layer};                                      \
  }())

/// Whether a call's outcome is a success: Status and Result report it;
/// calls returning a plain value cannot fail.
inline bool IsOk(const slim::Status& s) { return s.ok(); }
template <typename T>
bool IsOk(const slim::Result<T>& r) {
  return r.ok();
}
template <typename T>
bool IsOk(const T&) {
  return true;
}

/// \brief One thread's span list plus its open-span stack.
///
/// Real spans nest through the stack. Replays are recorded with an
/// explicit parent, since they run after the call they model returned.
class Tracer {
 public:
  explicit Tracer(size_t reserve = 0) { spans_.reserve(reserve); }

  void set_op(uint32_t op) { op_ = op; }
  /// Extra flags stamped on every span recorded from now on (kProbe).
  void set_phase_flags(uint8_t flags) { phase_flags_ = flags; }

  int32_t Begin(SpanKind kind) {
    Span s;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.name = kind.id;
    s.layer = kind.layer;
    s.flags = phase_flags_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    int32_t idx = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void End(int32_t idx, bool ok) {
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = NowNs();
    if (!ok) s.flags |= Span::kError;
    stack_.pop_back();
  }

  /// Records a finished span with an explicit parent and timing.
  int32_t Add(SpanKind kind, int32_t parent, int64_t start_ns, int64_t end_ns,
              uint8_t flags, bool ok = true) {
    Span s;
    s.parent = parent;
    s.op = op_;
    s.name = kind.id;
    s.layer = kind.layer;
    s.flags = static_cast<uint8_t>(flags | phase_flags_ |
                                   (ok ? 0 : Span::kError));
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const Span& span(int32_t idx) const {
    return spans_[static_cast<size_t>(idx)];
  }
  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint32_t op_ = 0;
  uint8_t phase_flags_ = 0;
};

/// Calls `fn` inside a real span when `tr` is set; plainly otherwise.
/// `idx`, when given, receives the span's index (-1 untraced).
template <typename F>
auto Call(Tracer* tr, SpanKind kind, F&& fn, int32_t* idx = nullptr) {
  if (idx != nullptr) *idx = -1;
  if (tr == nullptr) return fn();
  int32_t i = tr->Begin(kind);
  auto out = fn();
  tr->End(i, IsOk(out));
  if (idx != nullptr) *idx = i;
  return out;
}

/// Replays `fn` as a child of span `parent`; returns the replay's index
/// and result. Only called while tracing.
template <typename F>
auto Replay(Tracer* tr, SpanKind kind, int32_t parent, F&& fn) {
  int64_t start = NowNs();
  auto out = fn();
  int64_t end = NowNs();
  int32_t idx = tr->Add(kind, parent, start, end, Span::kReplay, IsOk(out));
  return std::make_pair(idx, std::move(out));
}

/// Writes spans as tab-separated lines (a header names the columns; the
/// name column resolves through the name table printed first).
inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                       int64_t t0_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::pair<std::string, Layer>> names = SpanNames::Get().All();
  std::fprintf(f, "# names");
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, " %zu=%s", i, names[i].first.c_str());
  }
  std::fprintf(f, "\n# flags 1=replay 2=error 4=derived 8=probe\n");
  std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\tflags\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%d\t%u\t%u\t%lld\t%lld\t%u\n", i, s.parent, s.op,
                 static_cast<unsigned>(s.name),
                 static_cast<long long>(s.start_ns - t0_ns),
                 static_cast<long long>(s.end_ns - t0_ns),
                 static_cast<unsigned>(s.flags));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
