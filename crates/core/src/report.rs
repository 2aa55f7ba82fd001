//! Machine-readable experiment reports: [`RunResult`]s and sweep curves
//! as [`Json`] trees of the workspace codec, so harness output can be
//! consumed by plotting scripts or CI checks.

use starnuma_sim::RunResult;
use starnuma_topology::AccessClass;
use starnuma_trace::Workload;
pub use starnuma_types::json::Json;

use crate::experiment::SystemKind;
use crate::sweep::SweepPoint;

/// Renders one run result as a JSON object.
pub fn run_result_json(workload: Workload, system: SystemKind, r: &RunResult) -> Json {
    let classes: Vec<Json> = AccessClass::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Json::Obj(vec![
                ("class".into(), Json::Str(c.label().into())),
                ("fraction".into(), Json::Num(r.class_fracs[i])),
                ("mean_latency_ns".into(), Json::Num(r.class_mean_ns[i])),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("system".into(), Json::Str(system.label().into())),
        ("ipc".into(), Json::Num(r.ipc)),
        ("amat_ns".into(), Json::Num(r.amat_ns)),
        ("unloaded_amat_ns".into(), Json::Num(r.unloaded_amat_ns)),
        ("contention_ns".into(), Json::Num(r.contention_ns)),
        ("mpki".into(), Json::Num(r.mpki)),
        ("pages_migrated".into(), Json::Num(r.pages_migrated as f64)),
        ("pages_to_pool".into(), Json::Num(r.pages_to_pool as f64)),
        (
            "pool_migration_fraction".into(),
            Json::Num(r.pool_migration_frac()),
        ),
        ("access_breakdown".into(), Json::Arr(classes)),
        (
            "directory".into(),
            Json::Obj(vec![
                (
                    "transactions".into(),
                    Json::Num(r.directory.transactions as f64),
                ),
                (
                    "pool_transactions".into(),
                    Json::Num(r.directory.pool_transactions as f64),
                ),
                ("bt_socket".into(), Json::Num(r.directory.bt_socket as f64)),
                ("bt_pool".into(), Json::Num(r.directory.bt_pool as f64)),
                (
                    "invalidations".into(),
                    Json::Num(r.directory.invalidations as f64),
                ),
            ]),
        ),
        ("phases".into(), Json::Num(r.phases.len() as f64)),
    ])
}

/// Renders a sweep curve as a JSON object: `{"knob": ..., "points":
/// [{"x": ..., "speedup": ...}, ...]}`. `knob` names the swept parameter
/// (e.g. `cxl_one_way_ns`, `pool_capacity_frac`).
pub fn sweep_points_json(knob: &str, points: &[SweepPoint]) -> Json {
    Json::Obj(vec![
        ("knob".into(), Json::Str(knob.into())),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("x".into(), Json::Num(p.x)),
                            ("speedup".into(), Json::Num(p.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, ScaleConfig};

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn sweep_points_serialize() {
        let pts = [
            SweepPoint {
                x: 50.0,
                speedup: 1.5,
            },
            SweepPoint {
                x: 140.0,
                speedup: 1.0,
            },
        ];
        assert_eq!(
            sweep_points_json("cxl_one_way_ns", &pts).render(),
            "{\"knob\":\"cxl_one_way_ns\",\"points\":[{\"x\":50,\"speedup\":1.5},{\"x\":140,\"speedup\":1}]}"
        );
    }

    #[test]
    fn run_result_round_trips_structure() {
        let r = Experiment::new(Workload::Poa, SystemKind::StarNuma, ScaleConfig::quick()).run();
        let doc = run_result_json(Workload::Poa, SystemKind::StarNuma, &r);
        let json = doc.render();
        assert!(json.contains("\"workload\":\"POA\""));
        assert!(json.contains("\"access_breakdown\":["));
        assert!(json.contains("\"pool_migration_fraction\":0"));
        assert_eq!(starnuma_types::json::parse(&json), Some(doc));
    }
}
