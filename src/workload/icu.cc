#include "workload/icu.h"

#include <cmath>
#include <unordered_set>

#include "util/strings.h"

namespace slim::workload {

namespace {

const std::vector<std::string> kFirstNames = {
    "John", "Mary", "Ahmed", "Li", "Rosa", "Pavel", "Aiko", "Kwame",
    "Ingrid", "Diego", "Fatima", "Sven", "Priya", "Omar", "Hana", "Luis"};
const std::vector<std::string> kLastNames = {
    "Smith", "Johnson", "Nguyen", "Garcia", "Chen",  "Kumar",
    "Okafor", "Larsen", "Dubois", "Tanaka", "Weber", "Rossi"};
const std::vector<std::string> kDrugs = {
    "dopamine",   "norepinephrine", "vancomycin", "ceftriaxone",
    "furosemide", "insulin",        "heparin",    "midazolam",
    "fentanyl",   "propofol",       "metoprolol", "amiodarone",
    "pantoprazole", "levothyroxine", "warfarin",  "albuterol"};
const std::vector<std::string> kRoutes = {"IV", "PO", "IM", "SC", "NEB"};
const std::vector<std::string> kFreqs = {"q4h", "q6h", "q8h", "q12h", "daily",
                                         "BID", "TID", "PRN", "continuous"};
const std::vector<std::string> kProblems = {
    "septic shock",         "acute respiratory failure",
    "atrial fibrillation",  "acute kidney injury",
    "GI bleed",             "DKA",
    "pneumonia",            "CHF exacerbation",
    "post-op day 2 CABG",   "stroke"};

struct Analyte {
  const char* name;
  double lo, hi;
  const char* units;
};

const std::vector<Analyte>& PanelAnalytes(const std::string& panel) {
  static const std::vector<Analyte> kElectrolytes = {
      {"Na", 128, 148, "mmol/L"}, {"K", 3.0, 5.8, "mmol/L"},
      {"Cl", 92, 112, "mmol/L"},  {"HCO3", 16, 30, "mmol/L"},
      {"BUN", 6, 48, "mg/dL"},    {"Cr", 0.5, 3.2, "mg/dL"},
      {"Glu", 62, 280, "mg/dL"}};
  static const std::vector<Analyte> kCbc = {
      {"WBC", 3.2, 18.0, "K/uL"},
      {"Hgb", 7.0, 15.5, "g/dL"},
      {"Hct", 22, 46, "%"},
      {"Plt", 80, 420, "K/uL"}};
  static const std::vector<Analyte> kAbg = {{"pH", 7.20, 7.52, ""},
                                            {"pCO2", 28, 58, "mmHg"},
                                            {"pO2", 55, 110, "mmHg"},
                                            {"Lactate", 0.6, 5.4, "mmol/L"}};
  if (panel == "cbc") return kCbc;
  if (panel == "abg") return kAbg;
  return kElectrolytes;
}

const std::vector<std::string> kPanels = {"electrolytes", "cbc", "abg"};

double RoundTo(double v, double step) {
  return std::round(v / step) * step;
}

// One-decimal display form ("4.2", "166.1") — avoids the binary-fraction
// noise FormatNumber's shortest-round-trip rule would faithfully preserve.
std::string OneDecimal(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  std::string out = buf;
  if (out.size() > 2 && out.substr(out.size() - 2) == ".0") {
    out.resize(out.size() - 2);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& ElectrolyteAnalytes() {
  static const std::vector<std::string> kNames = {"Na", "K",  "Cl", "HCO3",
                                                  "BUN", "Cr", "Glu"};
  return kNames;
}

IcuWorkload GenerateIcuWorkload(const IcuOptions& options) {
  Rng rng(options.seed);
  IcuWorkload out;

  // --- Patients ---
  // MRNs are distinct (each names the patient's lab and note files). A
  // repeated draw steps to the next unused number in 100000-999999,
  // wrapping, without drawing again, so a census with no repeat is the
  // same as one drawn without this check.
  constexpr uint64_t kMrnFirst = 100000;
  constexpr uint64_t kMrnCount = 900000;
  std::unordered_set<uint64_t> used_mrns;
  for (int p = 0; p < options.patients; ++p) {
    Patient patient;
    patient.name = rng.Pick(kFirstNames) + " " + rng.Pick(kLastNames);
    uint64_t mrn = rng.Below(kMrnCount);
    while (used_mrns.size() < kMrnCount && !used_mrns.insert(mrn).second) {
      mrn = (mrn + 1) % kMrnCount;
    }
    patient.mrn = "MRN" + std::to_string(kMrnFirst + mrn);
    int n_problems = static_cast<int>(rng.Range(1, 3));
    for (int i = 0; i < n_problems; ++i) {
      patient.problems.push_back(rng.Pick(kProblems));
    }
    out.patients.push_back(std::move(patient));
  }

  // --- Medication workbook (the complete medication list of Fig. 4) ---
  out.medication_workbook = std::make_unique<doc::Workbook>("meds.book");
  doc::Worksheet* meds =
      out.medication_workbook->AddSheet("Medications").ValueOrDie();
  meds->SetValue({0, 0}, std::string("Patient"));
  meds->SetValue({0, 1}, std::string("Drug"));
  meds->SetValue({0, 2}, std::string("Dose"));
  meds->SetValue({0, 3}, std::string("Route"));
  meds->SetValue({0, 4}, std::string("Frequency"));
  int row = 1;
  for (Patient& patient : out.patients) {
    patient.med_row_begin = row;
    patient.med_count = static_cast<int>(rng.Range(
        options.meds_per_patient_min, options.meds_per_patient_max));
    for (int m = 0; m < patient.med_count; ++m) {
      meds->SetValue({row, 0}, patient.name);
      meds->SetValue({row, 1}, rng.Pick(kDrugs));
      meds->SetValue({row, 2},
                     FormatNumber(RoundTo(rng.NextDouble() * 95 + 5, 5)) +
                         " mg");
      meds->SetValue({row, 3}, rng.Pick(kRoutes));
      meds->SetValue({row, 4}, rng.Pick(kFreqs));
      ++row;
    }
  }
  // A summary row with a live formula (exercises the evaluator under marks).
  meds->SetValue({row, 0}, std::string("TOTAL ORDERS"));
  (void)meds->SetFormula({row, 1},
                         "=COUNTA(B2:B" + std::to_string(row) + ")");

  // --- Lab reports (XML, one per patient) ---
  for (const Patient& patient : out.patients) {
    auto doc = doc::xml::Document::Create("labReport");
    doc::xml::Element* root = doc->root();
    root->SetAttribute("mrn", patient.mrn);
    root->SetAttribute("patient", patient.name);
    for (int pi = 0; pi < options.lab_panels &&
                     pi < static_cast<int>(kPanels.size());
         ++pi) {
      doc::xml::Element* panel = root->AddElement("panel");
      panel->SetAttribute("name", kPanels[static_cast<size_t>(pi)]);
      for (const Analyte& a :
           PanelAnalytes(kPanels[static_cast<size_t>(pi)])) {
        doc::xml::Element* result = panel->AddElement("result");
        result->SetAttribute("name", a.name);
        double v = a.lo + rng.NextDouble() * (a.hi - a.lo);
        result->SetAttribute("value", OneDecimal(v));
        if (a.units[0] != '\0') result->SetAttribute("units", a.units);
        result->AddText(std::string(a.name) + " " + OneDecimal(v));
      }
    }
    out.lab_reports.push_back(std::move(doc));
  }

  // --- Progress notes (text, one per patient) ---
  for (const Patient& patient : out.patients) {
    auto note = std::make_unique<doc::text::TextDocument>();
    note->AddParagraph("Progress note: " + patient.name + " (" + patient.mrn +
                           ")",
                       1);
    for (int para = 0; para < options.note_paragraphs; ++para) {
      std::string text = "Day " + std::to_string(para + 1) + ": patient with " +
                         patient.problems[static_cast<size_t>(para) %
                                          patient.problems.size()] +
                         ". ";
      int sentences = static_cast<int>(rng.Range(2, 5));
      for (int s = 0; s < sentences; ++s) {
        text += "Assessment " + rng.Word(6) + " " + rng.Word(8) + " " +
                rng.Word(5) + ". ";
      }
      note->AddParagraph(text);
    }
    out.progress_notes.push_back(std::move(note));
  }

  // --- Guideline PDF (shared) ---
  std::vector<std::string> guideline_paras;
  guideline_paras.push_back("Sepsis management guideline (synthetic).");
  for (int i = 0; i < 40; ++i) {
    std::string para = "Recommendation " + std::to_string(i + 1) + ": ";
    int words = static_cast<int>(rng.Range(20, 60));
    for (int w = 0; w < words; ++w) para += rng.Word(rng.Range(3, 9)) + " ";
    guideline_paras.push_back(para);
  }
  out.guideline_pdf = doc::pdf::PdfDocument::BuildFromParagraphs(
      guideline_paras);
  out.guideline_pdf->set_file_name("guidelines/sepsis.pdf");

  // --- Protocol page (HTML, shared) ---
  std::string html = "<html><head><title>ICU protocols</title></head><body>";
  html += "<h1 id=\"top\">ICU protocols</h1>";
  for (int i = 0; i < 12; ++i) {
    html += "<h2 id=\"proto" + std::to_string(i) + "\">Protocol " +
            std::to_string(i) + "</h2>";
    html += "<p>Step one: " + rng.Word(7) + " " + rng.Word(5) + ".</p>";
    html += "<ul><li>" + rng.Word(6) + "</li><li>" + rng.Word(6) +
            "</li></ul>";
  }
  html += "</body></html>";
  out.protocol_html = std::move(html);

  return out;
}

}  // namespace slim::workload
