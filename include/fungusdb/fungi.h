#ifndef FUNGUSDB_INCLUDE_FUNGUSDB_FUNGI_H_
#define FUNGUSDB_INCLUDE_FUNGUSDB_FUNGI_H_

/// Public surface: the decay operators — every concrete Fungus, the
/// name-based factory, and the rot-analysis report. Thin re-export over
/// src/ (see status.h for the rationale).

#include "fungus/egi_fungus.h"
#include "fungus/exponential_fungus.h"
#include "fungus/fungus.h"
#include "fungus/fungus_factory.h"
#include "fungus/importance_fungus.h"
#include "fungus/quota_fungus.h"
#include "fungus/random_blight_fungus.h"
#include "fungus/retention_fungus.h"
#include "fungus/rot_analysis.h"
#include "fungus/scheduler.h"
#include "fungus/semantic_fungus.h"
#include "fungus/sliding_window_fungus.h"

#endif  // FUNGUSDB_INCLUDE_FUNGUSDB_FUNGI_H_
