#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

/// \file ops.h
/// \brief The operations the workloads are made of — opening scraps,
/// consults, the handoff save/load and the shift edit script — each with
/// its answer check. Untraced they are the plain SLIM calls; traced they
/// record a span per layer call and, after a call that hides a lower
/// layer, replay the hidden call as that span's child with the op clock
/// paused.

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "doc/xml/parser.h"
#include "doc/xml/writer.h"
#include "env.h"
#include "slim/query.h"
#include "trim/persistence.h"

namespace perfbench {

/// \brief An op's timed wall: the sum of its running segments. Replays and
/// answer checks run with the clock stopped.
struct OpClock {
  int64_t started = 0;
  int64_t total = 0;
  void Start() { started = NowNs(); }
  void Stop() { total += NowNs() - started; }
};

/// \brief What a traced run counts besides spans.
struct TraceCounts {
  std::vector<double> triples_per_add;
  uint64_t consults = 0;
  uint64_t probes = 0;
  uint64_t rows_examined = 0;
  uint64_t answers = 0;
  double step_us = 0;   ///< Sum of EXPLAIN ANALYZE step wall times.
  double total_us = 0;  ///< Sum of EXPLAIN ANALYZE total times.
  double query_ns = 0;  ///< QueryPad time of consults also navigated.
  double nav_ns = 0;    ///< Navigation time for the same answers.
  double pad_bytes = 0;      ///< Pad + marks file bytes of traced saves.
  double saved_triples = 0;  ///< Triples in those saves.
};

// ---------------------------------------------------------------------------
// Opening scraps (rounds)
// ---------------------------------------------------------------------------

/// Replays what OpenScrap hid under style `style`, as children of `parent`.
inline void ReplayOpen(Tracer* tr, PadState& pad, const MarkedScrap& ms,
                       pad::ViewingStyle style, int32_t parent) {
  Result<const slim::mark::Mark*> mark = pad.marks.GetMark(ms.mark);
  if (!mark.ok()) return;
  std::string file = (*mark)->file_name();
  std::string address = (*mark)->address();
  slim::baseapp::BaseApplication* app = pad.base->App(ms.type);
  if (style != pad::ViewingStyle::kIndependent) {
    int32_t r = Replay(tr, PB_SPAN(kMark, "mark.resolve"), parent, [&] {
                  return pad.marks.ResolveMark(ms.mark, "context");
                }).first;
    Replay(tr, PB_SPAN(kBaseapp, "baseapp.navigate"), r,
           [&] { return app->NavigateTo(file, address); });
  }
  if (style != pad::ViewingStyle::kSimultaneous) {
    int32_t e = Replay(tr, PB_SPAN(kMark, "mark.extract"), parent, [&] {
                  return pad.marks.ExtractContent(ms.mark);
                }).first;
    Replay(tr, PB_SPAN(kBaseapp, "baseapp.extract"), e,
           [&] { return app->ExtractContent(file, address); });
  }
}

/// True when an open shows the mark's excerpt: in the navigated base
/// application, in place, or both, as the viewing style asks.
inline bool OpenShowsExcerpt(PadState& pad, const MarkedScrap& ms,
                             const pad::OpenResult& r) {
  bool navigated = r.style != pad::ViewingStyle::kIndependent;
  bool in_place = r.style != pad::ViewingStyle::kSimultaneous;
  if (r.base_app_navigated != navigated || r.mark_id != ms.mark) return false;
  if (navigated) {
    const auto& nav = pad.base->App(ms.type)->last_navigation();
    if (!nav.has_value() || nav->highlighted_content != ms.excerpt) {
      return false;
    }
  }
  return !in_place || r.in_place_content == ms.excerpt;
}

/// Opens every marked scrap once in each viewing style. Returns failed
/// opens; `attempted` grows by the opens tried.
inline uint64_t OpenAll(PadState& pad, Tracer* tr, OpClock* clock,
                        Samples* open_us, uint64_t* attempted,
                        size_t limit = SIZE_MAX) {
  uint64_t failed = 0;
  for (pad::ViewingStyle style :
       {pad::ViewingStyle::kSimultaneous, pad::ViewingStyle::kIndependent,
        pad::ViewingStyle::kEnhanced}) {
    pad.app->set_viewing_style(style);
    size_t n = std::min(limit, pad.marked.size());
    for (size_t i = 0; i < n; ++i) {
      const MarkedScrap& ms = pad.marked[i];
      ++*attempted;
      int32_t idx = -1;
      int64_t t0 = NowNs();
      Result<pad::OpenResult> r =
          Call(tr, PB_SPAN(kApp, "slimpad.app.open_scrap"),
               [&] { return pad.app->OpenScrap(ms.scrap); }, &idx);
      if (open_us != nullptr) open_us->Add((NowNs() - t0) / 1e3);
      if (!r.ok() || !OpenShowsExcerpt(pad, ms, *r)) {
        ++failed;
        NoteFailure("open " + ms.scrap + " (" + ms.type + ", " +
                    std::string(pad::ViewingStyleName(style)) +
                    ") did not show its mark's excerpt");
      }
      if (tr != nullptr) {
        clock->Stop();
        ReplayOpen(tr, pad, ms, style, idx);
        clock->Start();
      }
    }
  }
  return failed;
}

/// AuditMarks through mark::ValidateAllMarks; false unless every mark is
/// valid.
inline bool Audit(PadState& pad, Tracer* tr) {
  slim::mark::ValidationReport report =
      Call(tr, PB_SPAN(kMark, "mark.audit"),
           [&] { return slim::mark::ValidateAllMarks(&pad.marks); });
  bool ok = report.all_valid() && report.audits.size() == pad.marks.size();
  if (!ok) NoteFailure("audit: " + report.ToString());
  return ok;
}

// ---------------------------------------------------------------------------
// Consults (consult, shift)
// ---------------------------------------------------------------------------

using Rows = std::vector<std::vector<std::string>>;
using Answers = std::array<Rows, 4>;

/// Variables each question projects, in answer-row order.
inline const std::array<std::vector<std::string>, 4>& QuestionVars() {
  static const std::array<std::vector<std::string>, 4> kVars = {{
      {"s"}, {"b", "s"}, {"p", "e", "s", "h", "m"}, {"b", "s", "n"}}};
  return kVars;
}

/// \brief One consult: four questions about one analyte label, plus the
/// answers navigation through SlimPadDmi gives.
struct ConsultCase {
  std::string label;
  std::array<std::string, 4> texts;
  Answers expected;
};

inline std::array<std::string, 4> ConsultTexts(const std::string& root,
                                               const std::string& label) {
  std::string lit = "\"" + label + "\"";
  return {
      "?s scrapName " + lit,
      "?b bundleContent ?s . ?s scrapName " + lit,
      "<" + root + "> nestedBundle ?p . ?p nestedBundle ?e . "
      "?e bundleContent ?s . ?s scrapName " + lit +
          " . ?s scrapMark ?h . ?h markId ?m",
      "?b bundleName \"Electrolyte\" . ?b bundleContent ?s . ?s scrapName ?n",
  };
}

/// The four answers by navigation through the DMI's object graph (the
/// forms bench_query uses), rows sorted.
inline Answers NavigateAnswers(pad::SlimPadDmi& dmi, const std::string& root,
                               const std::string& label) {
  Answers out;
  for (const pad::Scrap* s : dmi.Scraps()) {
    if (s->name() == label) out[0].push_back({s->id()});
  }
  for (const pad::Bundle* b : dmi.Bundles()) {
    for (const std::string& sid : b->scraps()) {
      Result<const pad::Scrap*> s = dmi.GetScrap(sid);
      if (s.ok() && (*s)->name() == label) out[1].push_back({b->id(), sid});
    }
  }
  Result<const pad::Bundle*> r = dmi.GetBundle(root);
  if (r.ok()) {
    for (const std::string& pid : (*r)->nested_bundles()) {
      Result<const pad::Bundle*> p = dmi.GetBundle(pid);
      if (!p.ok()) continue;
      for (const std::string& eid : (*p)->nested_bundles()) {
        Result<const pad::Bundle*> e = dmi.GetBundle(eid);
        if (!e.ok()) continue;
        for (const std::string& sid : (*e)->scraps()) {
          Result<const pad::Scrap*> s = dmi.GetScrap(sid);
          if (!s.ok() || (*s)->name() != label) continue;
          for (const std::string& hid : (*s)->mark_handles()) {
            Result<const pad::MarkHandle*> h = dmi.GetMarkHandle(hid);
            if (h.ok()) out[2].push_back({pid, eid, sid, hid, (*h)->mark_id()});
          }
        }
      }
    }
  }
  for (const pad::Bundle* b : dmi.Bundles()) {
    if (b->name() != "Electrolyte") continue;
    for (const std::string& sid : b->scraps()) {
      Result<const pad::Scrap*> s = dmi.GetScrap(sid);
      if (s.ok()) out[3].push_back({b->id(), sid, (*s)->name()});
    }
  }
  for (Rows& rows : out) std::sort(rows.begin(), rows.end());
  return out;
}

inline Rows ToRows(const std::vector<slim::store::Binding>& bindings,
                   const std::vector<std::string>& vars) {
  Rows rows;
  rows.reserve(bindings.size());
  for (const slim::store::Binding& b : bindings) {
    std::vector<std::string> row;
    for (const std::string& v : vars) {
      auto it = b.find(v);
      row.push_back(it == b.end() ? std::string() : it->second.text);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A seeded pool of consult cases on `pad`, taken in order by the
/// workloads: every tenth asks for a label absent from the pad, the rest
/// for a seeded analyte label. Expected answers come from navigation.
inline std::vector<ConsultCase> MakeConsultPool(PadState& pad, uint64_t seed,
                                                size_t size) {
  slim::Rng rng(seed ^ 0xC0A5017ULL);
  std::vector<ConsultCase> pool;
  for (size_t i = 0; i < size; ++i) {
    ConsultCase c;
    if (i % 10 == 9 || pad.lyte_labels.empty()) {
      c.label = "K " + std::to_string(rng.Range(20, 99)) + ".5";  // absent
    } else {
      c.label = pad.lyte_labels[rng.Below(pad.lyte_labels.size())];
    }
    c.texts = ConsultTexts(pad.root, c.label);
    c.expected = NavigateAnswers(pad.app->dmi(), pad.root, c.label);
    pool.push_back(std::move(c));
  }
  return pool;
}

/// Runs one consult (four QueryPad calls). Returns false when an answer
/// differs from the expected one. Traced, each QueryPad is followed by
/// replays of Query::Parse and store::Execute; the trim share of the
/// execute replay is a derived child sized by EXPLAIN ANALYZE's per-step
/// probe time.
inline bool RunConsult(PadState& pad, const ConsultCase& c, Tracer* tr,
                       OpClock* clock, TraceCounts* counts,
                       bool time_navigation) {
  std::array<Result<std::vector<slim::store::Binding>>, 4> results = {
      Status::OK(), Status::OK(), Status::OK(), Status::OK()};
  std::array<int32_t, 4> idx{};
  for (size_t q = 0; q < 4; ++q) {
    results[q] = Call(tr, PB_SPAN(kApp, "slimpad.app.query_pad"),
                      [&] { return pad.app->QueryPad(c.texts[q]); }, &idx[q]);
  }
  clock->Stop();
  bool ok = true;
  for (size_t q = 0; q < 4; ++q) {
    if (!results[q].ok() ||
        ToRows(*results[q], QuestionVars()[q]) != c.expected[q]) {
      ok = false;
      NoteFailure("consult Q" + std::to_string(q + 1) + " for \"" + c.label +
                  "\" differs from navigation");
    }
  }
  if (tr != nullptr) {
    const slim::trim::TripleStore& store = pad.app->store();
    for (size_t q = 0; q < 4; ++q) {
      auto [pidx, parsed] = Replay(tr, PB_SPAN(kSlim, "slim.parse"), idx[q],
                                   [&] { return slim::store::Query::Parse(c.texts[q]); });
      (void)pidx;
      if (!parsed.ok()) continue;
      int32_t xidx = Replay(tr, PB_SPAN(kSlim, "slim.execute"), idx[q], [&] {
                       return slim::store::Execute(store, *parsed);
                     }).first;
      Result<slim::store::AnalyzedQuery> analyzed =
          slim::store::ExplainAnalyze(store, *parsed);
      if (!analyzed.ok()) continue;
      const slim::store::QueryPlan& plan = analyzed->plan;
      double step_us = 0;
      for (const slim::store::PlanStep& step : plan.steps) {
        counts->probes += step.probes;
        counts->rows_examined += step.rows_examined;
        step_us += static_cast<double>(step.wall_us);
      }
      counts->answers += plan.solutions;
      counts->step_us += step_us;
      counts->total_us += static_cast<double>(plan.total_us);
      double share =
          plan.total_us > 0
              ? std::min(1.0, step_us / static_cast<double>(plan.total_us))
              : 0.0;
      const Span& x = tr->span(xidx);
      tr->Add(PB_SPAN(kTrim, "trim.select_each"), xidx, x.start_ns,
              x.start_ns + static_cast<int64_t>(share * x.duration()),
              Span::kReplay | Span::kDerived);
    }
    ++counts->consults;
    if (time_navigation) {
      int64_t t0 = NowNs();
      Answers nav = NavigateAnswers(pad.app->dmi(), pad.root, c.label);
      counts->nav_ns += static_cast<double>(NowNs() - t0);
      for (size_t q = 0; q < 4; ++q) {
        counts->query_ns += static_cast<double>(tr->span(idx[q]).duration());
      }
      ok = ok && nav == c.expected;
    }
  }
  clock->Start();
  return ok;
}

/// Invariants the shift edit script keeps, read from the store under one
/// snapshot: the root nests the pad's patient bundles plus the References
/// bundle, each patient bundle nests exactly one Electrolyte bundle, and no
/// scrap holds more than one mark handle.
inline bool CheckShiftInvariants(PadState& pad) {
  const slim::trim::TripleStore& store = pad.app->store();
  slim::trim::TripleStore::Snapshot snap(store);
  using slim::trim::TriplePattern;
  std::vector<slim::trim::Triple> kids =
      store.Select(TriplePattern::BySubjectProperty(pad.root, "nestedBundle"));
  if (kids.size() != pad.patient_bundles.size() + 1) {
    NoteFailure("shift: root nests " + std::to_string(kids.size()) +
                " bundles");
    return false;
  }
  for (const std::string& patient : pad.patient_bundles) {
    size_t lytes = 0;
    for (const slim::trim::Triple& n : store.Select(
             TriplePattern::BySubjectProperty(patient, "nestedBundle"))) {
      std::optional<slim::trim::Object> name =
          store.GetOne(n.object.text, "bundleName");
      if (name.has_value() && name->text == "Electrolyte") ++lytes;
    }
    if (lytes != 1) {
      NoteFailure("shift: " + patient + " nests " + std::to_string(lytes) +
                  " Electrolyte bundles");
      return false;
    }
  }
  std::map<std::string, int> handles;
  for (const slim::trim::Triple& t :
       store.Select(TriplePattern::ByProperty("scrapMark"))) {
    if (++handles[t.subject] > 1) {
      NoteFailure("shift: scrap " + t.subject + " holds two mark handles");
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Handoff (save, then load in a receiving session)
// ---------------------------------------------------------------------------

using TripleRow = std::tuple<std::string, std::string, bool, std::string>;

/// All triples of `store`, sorted, read under one snapshot.
inline std::vector<TripleRow> SortedTriples(
    const slim::trim::TripleStore& store) {
  slim::trim::TripleStore::Snapshot snap(store);
  std::vector<TripleRow> out;
  out.reserve(store.size());
  store.ForEach([&](const slim::trim::Triple& t) {
    out.emplace_back(t.subject, t.property, t.object.is_resource(),
                     t.object.text);
  });
  std::sort(out.begin(), out.end());
  return out;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline double FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<double>(in.tellg()) : 0.0;
}

/// \brief Timings of one handoff op, in ms.
struct HandoffTimes {
  double save_ms = 0;
  double load_ms = 0;
};

/// Saves `sender`'s pad to `path` and loads it into a fresh receiving
/// session over `receiver_base`; checks the reload against `expected`,
/// the sender's sorted triples (computed here when null). Traced, SavePad is
/// issued as SaveStore + SaveToFile, and LoadPad is followed by replays of
/// LoadFromFile, LoadStore (with ParseXml under it) and
/// RebuildFromTriples; WriteXml is replayed under SaveStore.
inline bool Handoff(PadState& sender, BaseLayer* receiver_base,
                    const std::string& path, Tracer* tr, OpClock* clock,
                    HandoffTimes* times, TraceCounts* counts,
                    std::unique_ptr<PadState>* receiver,
                    const std::vector<TripleRow>* expected = nullptr) {
  receiver->reset();
  *receiver = std::make_unique<PadState>(receiver_base);
  const std::string marks_path = path + ".marks";
  int32_t store_save = -1;
  int32_t load = -1;
  clock->Start();
  int64_t t0 = NowNs();
  Status saved =
      tr == nullptr
          ? sender.app->SavePad(path)
          : Call(tr, PB_SPAN(kApp, "slimpad.app.save_pad"), [&]() -> Status {
              SLIM_RETURN_NOT_OK(Call(
                  tr, PB_SPAN(kTrim, "trim.save"),
                  [&] { return slim::trim::SaveStore(sender.app->store(), path); },
                  &store_save));
              return Call(tr, PB_SPAN(kMark, "mark.save"),
                          [&] { return sender.marks.SaveToFile(marks_path); });
            });
  int64_t t1 = NowNs();
  Status loaded =
      saved.ok() ? Call(tr, PB_SPAN(kApp, "slimpad.app.load_pad"),
                        [&] { return (*receiver)->app->LoadPad(path); }, &load)
                 : saved;
  int64_t t2 = NowNs();
  clock->Stop();
  times->save_ms = (t1 - t0) / 1e6;
  times->load_ms = (t2 - t1) / 1e6;
  if (!loaded.ok()) return false;

  if (tr != nullptr) {
    std::string text = ReadFile(path);
    slim::trim::TripleStore store;
    pad::SlimPadDmi dmi(&store);
    slim::mark::MarkManager marks;
    (void)receiver_base->Register(&marks);
    Replay(tr, PB_SPAN(kMark, "mark.load"), load,
           [&] { return marks.LoadFromFile(marks_path); });
    int32_t tl = Replay(tr, PB_SPAN(kTrim, "trim.load"), load, [&] {
                   return slim::trim::LoadStore(path, &store);
                 }).first;
    slim::doc::xml::ParseOptions opts;
    opts.strip_whitespace_text = false;
    auto parsed = Replay(tr, PB_SPAN(kDoc, "doc.xml_parse"), tl, [&] {
                    return slim::doc::xml::ParseXml(text, opts);
                  }).second;
    Replay(tr, PB_SPAN(kDmi, "slimpad.dmi.rebuild"), load,
           [&] { return dmi.RebuildFromTriples(); });
    if (parsed.ok() && store_save >= 0) {
      Replay(tr, PB_SPAN(kDoc, "doc.xml_write"), store_save,
             [&] { return slim::doc::xml::WriteXml(**parsed); });
    }
    counts->pad_bytes += FileBytes(path) + FileBytes(marks_path);
    counts->saved_triples += static_cast<double>(sender.app->store().size());
  }

  // Answer checks: identical triples, as many marks, every scrap opens.
  PadState& r = **receiver;
  if (SortedTriples(r.app->store()) !=
      (expected != nullptr ? *expected : SortedTriples(sender.app->store()))) {
    NoteFailure("handoff: reloaded triples differ from the saved ones");
    return false;
  }
  if (r.marks.size() != sender.marks.size() || !CollectMarked(&r).ok() ||
      r.marked.size() != sender.marked.size()) {
    NoteFailure("handoff: reloaded marks differ from the saved ones");
    return false;
  }
  r.app->set_viewing_style(pad::ViewingStyle::kSimultaneous);
  for (const MarkedScrap& ms : r.marked) {
    if (!r.app->OpenScrap(ms.scrap).ok()) {
      NoteFailure("handoff: reloaded scrap " + ms.scrap + " does not open");
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The shift edit script
// ---------------------------------------------------------------------------

/// \brief A seeded, size-neutral cycle of seven edits through SlimPadDmi and
/// SlimPadApp: add a scrap with its mark (a live selection), annotate it,
/// link it, drag a scrap, rename a medication scrap, unlink, then delete
/// the added scrap together with its mark. Edits never touch the labels,
/// bundles or nesting the consult questions read.
class Editor {
 public:
  Editor(PadState* pad, uint64_t seed) : pad_(pad), rng_(seed ^ 0xED17ULL) {}

  static constexpr int kCycle = 7;
  bool at_cycle_start() const { return step_ == 0; }
  /// Traced: TripleStore::size() growth of each add-scrap edit.
  std::vector<double>* triples_per_add = nullptr;
  uint64_t edits() const { return edits_; }

  /// Runs the next edit; the clock covers exactly the edit.
  Status Step(Tracer* tr, OpClock* clock) {
    Gestures g{pad_, tr};
    g.triples_per_add = triples_per_add;
    pad::SlimPadDmi& dmi = pad_->app->dmi();
    const auto& patients = pad_->base->icu().patients;
    ++edits_;
    clock->Start();
    Status st;
    switch (step_) {
      case 0: {
        size_t p = rng_.Below(pad_->patient_bundles.size());
        const slim::workload::Patient& patient = patients[p];
        int row = patient.med_row_begin +
                  static_cast<int>(rng_.Below(
                      static_cast<uint64_t>(std::max(1, patient.med_count))));
        Result<std::string> added =
            g.AddMedScrap(pad_->patient_bundles[p], row,
                          "Note " + std::to_string(edits_),
                          pad::Coordinate{400, 130});
        st = added.status();
        if (added.ok()) temp_ = *added;
        break;
      }
      case 1:
        st = Call(tr, PB_SPAN(kDmi, "slimpad.dmi.add_scrap_annotation"), [&] {
          return dmi.AddScrapAnnotation(temp_, "seen " + std::to_string(edits_));
        });
        break;
      case 2:
        target_ = pad_->med_scraps[rng_.Below(pad_->med_scraps.size())];
        st = Call(tr, PB_SPAN(kDmi, "slimpad.dmi.link_scraps"),
                  [&] { return dmi.LinkScraps(temp_, target_); });
        break;
      case 3: {
        const std::string& s =
            pad_->marked[rng_.Below(pad_->marked.size())].scrap;
        pad::Coordinate pos{double(rng_.Below(600)), double(rng_.Below(150))};
        st = Call(tr, PB_SPAN(kDmi, "slimpad.dmi.update_scrap_pos"),
                  [&] { return dmi.Update_scrapPos(s, pos); });
        break;
      }
      case 4: {
        const std::string& s =
            pad_->med_scraps[rng_.Below(pad_->med_scraps.size())];
        std::string name = "Rx " + std::to_string(edits_);
        st = Call(tr, PB_SPAN(kDmi, "slimpad.dmi.update_scrap_name"),
                  [&] { return dmi.Update_scrapName(s, name); });
        break;
      }
      case 5:
        st = Call(tr, PB_SPAN(kDmi, "slimpad.dmi.unlink_scraps"),
                  [&] { return dmi.UnlinkScraps(temp_, target_); });
        break;
      default:
        st = DeleteTemp(tr);
        break;
    }
    clock->Stop();
    step_ = (step_ + 1) % kCycle;
    return st;
  }

 private:
  Status DeleteTemp(Tracer* tr) {
    pad::SlimPadDmi& dmi = pad_->app->dmi();
    SLIM_ASSIGN_OR_RETURN(const pad::Scrap* scrap,
                          Call(tr, PB_SPAN(kDmi, "slimpad.dmi.get_scrap"),
                               [&] { return dmi.GetScrap(temp_); }));
    if (scrap->mark_handles().size() != 1) {
      return Status::FailedPrecondition("added scrap lost its mark handle");
    }
    SLIM_ASSIGN_OR_RETURN(
        const pad::MarkHandle* handle,
        Call(tr, PB_SPAN(kDmi, "slimpad.dmi.get_mark_handle"),
             [&] { return dmi.GetMarkHandle(scrap->mark_handles().front()); }));
    std::string mark = handle->mark_id();
    SLIM_RETURN_NOT_OK(Call(tr, PB_SPAN(kDmi, "slimpad.dmi.delete_scrap"),
                            [&] { return dmi.Delete_Scrap(temp_); }));
    return Call(tr, PB_SPAN(kMark, "mark.remove"),
                [&] { return pad_->marks.RemoveMark(mark); });
  }

  PadState* pad_;
  slim::Rng rng_;
  int step_ = 0;
  uint64_t edits_ = 0;
  std::string temp_;
  std::string target_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
