#ifndef SLIM_CORE_SUPERIMPOSED_H_
#define SLIM_CORE_SUPERIMPOSED_H_

/// \file superimposed.h
/// \brief Umbrella header: the public API of the superimposed-information
/// architecture (the paper's primary contribution).
///
/// The contribution is not one class but the three generic components of
/// paper Fig. 5 and the application built on them:
///
///  - **Mark management** (`slim::mark`): MarkManager, typed Mark
///    subclasses, per-application mark modules, alternative resolvers, and
///    the staleness validator.
///  - **Superimposed information management** (`slim::trim`, `slim::store`):
///    the TRIM triple store and its pad files, the metamodel
///    (models/schemas/instances as triples), conformance checking, schema
///    induction, mappings, queries, and RDF/XML interchange.
///  - **Application-specific DMIs** (`slim::dmi`, `slim::pad`): the
///    runtime-generated DynamicDmi and SLIMPad's hand-written SlimPadDmi.
///  - **SLIMPad** (`slim::pad`): the Bundle-Scrap application with the
///    three viewing styles.
///
/// Base applications and document substrates live under `slim::baseapp`
/// and `slim::doc`; superimposed applications depend only on the
/// interfaces re-exported here.

// Error handling.
#include "util/result.h"
#include "util/status.h"

// Base-application contract (what a new source type must implement) and
// the six bundled base applications.
#include "baseapp/base_application.h"
#include "baseapp/html_app.h"
#include "baseapp/pdf_app.h"
#include "baseapp/slide_app.h"
#include "baseapp/spreadsheet_app.h"
#include "baseapp/text_app.h"
#include "baseapp/xml_app.h"

// Mark management (interface, the six bundled modules, the manager).
#include "mark/mark.h"
#include "mark/mark_manager.h"
#include "mark/mark_module.h"
#include "mark/modules.h"
#include "mark/validator.h"

// Superimposed information management.
#include "slim/conformance.h"
#include "slim/instance.h"
#include "slim/mapping.h"
#include "slim/model.h"
#include "slim/query.h"
#include "slim/schema.h"
#include "trim/persistence.h"
#include "trim/rdf_xml.h"
#include "trim/triple_store.h"

// Data-manipulation interfaces.
#include "dmi/dynamic_dmi.h"

// The SLIMPad application.
#include "slimpad/slimpad_app.h"
#include "slimpad/slimpad_dmi.h"

#endif  // SLIM_CORE_SUPERIMPOSED_H_
