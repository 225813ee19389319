#pragma once

/// \file rlc.hpp
/// Versioned umbrella header — the ONE include of the redesigned public
/// API.  Link the `rlc` CMake interface target and write:
///
///   #include "rlc/rlc.hpp"
///
///   rlc::svc::Session session;
///   auto r = session.submit({.technology = "100nm", .l = 2.0e-6});
///   if (r.is_ok()) use(r->delay_per_length);
///
/// The stable surface is, from the bottom of the stack up:
///   * rlc::Status / rlc::StatusOr<T>, rlc::version()  (rlc/base)
///   * cancellation tokens + deadlines                 (rlc/base/cancel.hpp)
///   * the typed optimize() entry point + Pareto sweep (rlc/core/optimize_api.hpp)
///   * the scalar (h,k) kernels it dispatches to       (rlc/core/optimizer.hpp)
///   * the repeater-chain power models                 (rlc/core/power.hpp)
///   * ScenarioSpec/ScenarioResult + the registry      (rlc/scenario)
///   * Session / Server — the query service            (rlc/svc)
///
/// Everything else under rlc/... (math kernels, tline models, Laplace
/// inversion, SPICE writers) is implementation surface: usable, but not
/// covered by the Status boundary rule and free to move between releases.
/// rlc::version() is stamped into every BENCH_*.json artifact and every
/// rlc_serve response, so artifacts are traceable to the library that
/// produced them.

#include "rlc/base/cancel.hpp"
#include "rlc/base/status.hpp"
#include "rlc/base/version.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/power.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/scenario/result.hpp"
#include "rlc/scenario/spec.hpp"
#include "rlc/svc/query.hpp"
#include "rlc/svc/serve.hpp"
#include "rlc/svc/session.hpp"
