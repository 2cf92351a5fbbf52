//! Incrementally maintained fleet views — materialized monitoring
//! aggregates that replace full-table reads on dashboard paths.
//!
//! A [`FleetViews`] instance is fed by the cloud layer's fold over applied
//! pool mutations: every admission and every journal replay after a crash is
//! reflected here at the moment it happens, so reading a dashboard is O(view
//! size), not O(pool size). What the views do not derive from the pool —
//! per-portal and per-cloud counts — the dashboard's caller reads from where
//! it is counted and hands to [`FleetViews::dashboard_json`].
//!
//! Every update is **idempotent**: statuses are keyed per process (a replay
//! that re-applies a batch overwrites the same entry) and document progress
//! is max-merged. Re-feeding the same operation therefore cannot drift a
//! view — which is exactly what makes the views crash-consistent: recovery
//! replays the journal through the same hook that live admissions use.
//!
//! The latency view keeps each process's timestamp gaps as measured on the
//! version its admission stored, replaced only by a higher version. The
//! cloud layer feeds it at admission; a process whose entry is older than
//! its progress (a torn admission that replay repaired, a cold restart) is
//! listed by [`FleetViews::lagging_gaps`] for the caller to measure once.
//!
//! The differential check (`views ≡ scan`) is the proof obligation: the
//! pool-derived views (status counts, per-process progress, per-activity
//! gap totals) must equal a fresh [`crate::map_reduce_scan`] recompute after
//! any schedule of admissions, crashes and failovers. The cloud layer
//! exposes it as `CloudSystem::views_match_scan`.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per activity: `(gaps counted, Σ gap ms)`.
pub type GapTotals = BTreeMap<String, (u64, u64)>;

#[derive(Default)]
struct ViewState {
    /// pid → latest status string (source for `status_counts`).
    process_status: BTreeMap<String, String>,
    /// pid → stored document versions (max seq + 1; max-merged).
    process_progress: BTreeMap<String, u64>,
    /// pid → (seq of the version measured, `(activity, gap ms)` of it).
    process_gaps: BTreeMap<String, (u64, Vec<(String, u64)>)>,
}

impl ViewState {
    fn status_counts(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for status in self.process_status.values() {
            *counts.entry(status.clone()).or_insert(0) += 1;
        }
        counts
    }
}

/// Materialized monitoring aggregates, maintained incrementally.
#[derive(Default)]
pub struct FleetViews {
    state: Mutex<ViewState>,
}

impl FleetViews {
    /// Fresh, empty views.
    pub fn new() -> FleetViews {
        FleetViews::default()
    }

    fn lock(&self) -> MutexGuard<'_, ViewState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record (or overwrite) a process's status. Idempotent per process.
    pub fn record_status(&self, process_id: &str, status: &str) {
        let mut st = self.lock();
        st.process_status.insert(process_id.to_string(), status.to_string());
    }

    /// Record a stored document version `seq` for a process. Progress is
    /// max-merged, so replays and out-of-order applies cannot double-count.
    pub fn record_doc(&self, process_id: &str, seq: u64) {
        let mut st = self.lock();
        let slot = st.process_progress.entry(process_id.to_string()).or_insert(0);
        *slot = (*slot).max(seq + 1);
    }

    /// Record the timestamp gaps of a process's stored version `seq`. The
    /// entry is replaced only by a higher `seq`, so a replay or a late
    /// measurement of an older version cannot move it backwards.
    pub fn record_gaps(&self, process_id: &str, seq: u64, gaps: Vec<(String, u64)>) {
        let mut st = self.lock();
        if st.process_gaps.get(process_id).is_none_or(|&(at, _)| at < seq) {
            st.process_gaps.insert(process_id.to_string(), (seq, gaps));
        }
    }

    /// Processes whose gap entry is older than their latest stored version,
    /// as `(pid, latest seq)`: what [`FleetViews::record_gaps`] still has to
    /// be told before [`FleetViews::gap_totals`] answers for the pool.
    pub fn lagging_gaps(&self) -> Vec<(String, u64)> {
        let st = self.lock();
        let mut lagging = Vec::new();
        for (pid, &versions) in &st.process_progress {
            if st.process_gaps.get(pid).is_none_or(|&(at, _)| at + 1 < versions) {
                lagging.push((pid.clone(), versions - 1));
            }
        }
        lagging
    }

    /// Per-activity `(count, Σ gap ms)` over every process's entry.
    pub fn gap_totals(&self) -> GapTotals {
        let mut totals = GapTotals::new();
        for (activity, gap) in self.lock().process_gaps.values().flat_map(|(_, gaps)| gaps) {
            let slot = totals.entry(activity.clone()).or_insert((0, 0));
            *slot = (slot.0 + 1, slot.1 + gap);
        }
        totals
    }

    /// Per-status process counts, derived from the per-process status view.
    pub fn status_counts(&self) -> BTreeMap<String, u64> {
        self.lock().status_counts()
    }

    /// Stored document versions per process.
    pub fn progress(&self) -> BTreeMap<String, u64> {
        self.lock().process_progress.clone()
    }

    /// The pool-derived sections of the dashboard (status counts and
    /// per-process progress) as canonical JSON — the byte-comparison target
    /// for the differential check against a scan recompute.
    pub fn pool_view_json(&self) -> String {
        let st = self.lock();
        Self::render_pool_view(&st.status_counts(), &st.process_progress)
    }

    /// Build the pool-derived sections from externally recomputed maps —
    /// used by the differential check to render the scan recompute in the
    /// identical byte format as [`FleetViews::pool_view_json`].
    pub fn render_pool_view(
        status: &BTreeMap<String, u64>,
        progress: &BTreeMap<String, u64>,
    ) -> String {
        let mut out = String::from("{\"status\":{");
        push_map(&mut out, status.iter().map(|(k, v)| (k.as_str(), *v)));
        out.push_str("},\"progress\":{");
        push_map(&mut out, progress.iter().map(|(k, v)| (k.as_str(), *v)));
        out.push_str("}}");
        out
    }

    /// The full dashboard as byte-deterministic JSON: status counts, the
    /// `(admissions, notifications)` of each portal in index order, each
    /// cloud's committed journal watermark with its lag behind the
    /// furthest-ahead cloud, and progress of the still-active instances.
    /// A portal or cloud with nothing to count yet is left out.
    pub fn dashboard_json(&self, portals: &[(u64, u64)], clouds: &[(&str, u64)]) -> String {
        let st = self.lock();
        let head = clouds.iter().map(|&(_, w)| w).max().unwrap_or(0);
        let docs_total: u64 = st.process_progress.values().sum();

        let mut out = String::from("{\n\"status\":{");
        push_map(&mut out, st.status_counts().iter().map(|(k, v)| (k.as_str(), *v)));
        out.push_str("},\n\"portals\":{");
        let served = portals.iter().enumerate().filter(|(_, &portal)| portal != (0, 0));
        for (i, (p, (adm, ntf))) in served.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{p}\":{{\"admissions\":{adm},\"notifications\":{ntf}}}"));
        }
        out.push_str("},\n\"clouds\":{");
        for (i, (cloud, w)) in clouds.iter().filter(|&&(_, w)| w > 0).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{cloud}\":{{\"committed\":{w},\"lag\":{}}}", head - w));
        }
        out.push_str("},\n\"active\":{");
        let active: Vec<(&str, u64)> = st
            .process_status
            .iter()
            .filter(|(_, s)| s.as_str() != "complete")
            .filter_map(|(pid, _)| st.process_progress.get(pid).map(|&p| (pid.as_str(), p)))
            .collect();
        push_map(&mut out, active.into_iter());
        out.push_str(&format!(
            "}},\n\"totals\":{{\"processes\":{},\"docs\":{docs_total}}}\n}}\n",
            st.process_status.len()
        ));
        out
    }

    /// Compare the pool-derived views against externally recomputed maps.
    /// `Ok(())` when identical; `Err` names the first divergent cell.
    pub fn diff_against(
        &self,
        status_scan: &BTreeMap<String, u64>,
        progress_scan: &BTreeMap<String, u64>,
        gaps_scan: &GapTotals,
    ) -> Result<(), String> {
        same("status", &self.status_counts(), status_scan)?;
        same("progress", &self.progress(), progress_scan)?;
        same("latency", &self.gap_totals(), gaps_scan)
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{v}"));
    }
}

/// `Err` naming the first key at which `view` and `scan` differ.
fn same<V: PartialEq + Debug>(
    name: &str,
    view: &BTreeMap<String, V>,
    scan: &BTreeMap<String, V>,
) -> Result<(), String> {
    let mut keys = view.keys().chain(scan.keys());
    match keys.find(|&k| view.get(k) != scan.get(k)) {
        None => Ok(()),
        Some(k) => Err(format!(
            "{name} view diverges from scan recompute at {k:?}: view={:?} scan={:?}",
            view.get(k),
            scan.get(k)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_replay_does_not_drift() {
        let v = FleetViews::new();
        for _ in 0..3 {
            v.record_status("p1", "running");
            v.record_doc("p1", 0);
            v.record_doc("p1", 1);
        }
        assert_eq!(v.status_counts()["running"], 1);
        assert_eq!(v.progress()["p1"], 2);
    }

    #[test]
    fn status_transitions_move_counts() {
        let v = FleetViews::new();
        v.record_status("p1", "running");
        v.record_status("p2", "running");
        v.record_status("p1", "complete");
        let counts = v.status_counts();
        assert_eq!(counts["running"], 1);
        assert_eq!(counts["complete"], 1);
    }

    #[test]
    fn pool_view_json_matches_rendered_maps() {
        let v = FleetViews::new();
        v.record_status("p1", "complete");
        v.record_status("p2", "running");
        v.record_doc("p1", 3);
        v.record_doc("p2", 0);
        let rendered = FleetViews::render_pool_view(&v.status_counts(), &v.progress());
        assert_eq!(v.pool_view_json(), rendered);
        assert_eq!(
            v.pool_view_json(),
            "{\"status\":{\"complete\":1,\"running\":1},\"progress\":{\"p1\":4,\"p2\":1}}"
        );
    }

    #[test]
    fn dashboard_json_is_stable() {
        let v = FleetViews::new();
        v.record_status("p1", "complete");
        v.record_status("p2", "running");
        v.record_doc("p1", 1);
        v.record_doc("p2", 0);
        let portals = [(2, 0), (0, 1), (0, 0)];
        let clouds = [("east", 3), ("west", 2), ("north", 0)];
        let a = v.dashboard_json(&portals, &clouds);
        assert_eq!(a, v.dashboard_json(&portals, &clouds), "byte-deterministic re-render");
        assert!(a.contains("\"status\":{\"complete\":1,\"running\":1}"));
        assert!(a.contains(
            "\"portals\":{\"0\":{\"admissions\":2,\"notifications\":0},\
             \"1\":{\"admissions\":0,\"notifications\":1}},"
        ));
        assert!(a.contains(
            "\"clouds\":{\"east\":{\"committed\":3,\"lag\":0},\
             \"west\":{\"committed\":2,\"lag\":1}},"
        ));
        assert!(a.contains("\"active\":{\"p2\":1}"), "only non-complete instances: {a}");
        assert!(a.contains("\"totals\":{\"processes\":2,\"docs\":3}"));
    }

    #[test]
    fn diff_against_names_divergent_cell() {
        let v = FleetViews::new();
        v.record_status("p1", "running");
        v.record_doc("p1", 0);
        v.record_gaps("p1", 0, vec![("B".into(), 7)]);
        assert!(v.diff_against(&v.status_counts(), &v.progress(), &v.gap_totals()).is_ok());
        let mut bad = v.progress();
        bad.insert("p1".into(), 9);
        let err = v.diff_against(&v.status_counts(), &bad, &v.gap_totals()).unwrap_err();
        assert!(err.contains("p1"), "{err}");
        let mut bad = v.gap_totals();
        bad.insert("B".into(), (1, 8));
        let err = v.diff_against(&v.status_counts(), &v.progress(), &bad).unwrap_err();
        assert!(err.contains("latency") && err.contains("\"B\""), "{err}");
    }

    #[test]
    fn gaps_move_only_forward_and_lag_behind_progress() {
        let v = FleetViews::new();
        v.record_doc("p1", 0);
        v.record_doc("p1", 1);
        v.record_doc("p2", 0);
        assert_eq!(v.lagging_gaps(), [("p1".to_string(), 1), ("p2".to_string(), 0)]);
        v.record_gaps("p1", 1, vec![("A".into(), 5), ("B".into(), 3)]);
        v.record_gaps("p2", 0, vec![("A".into(), 2)]);
        assert!(v.lagging_gaps().is_empty());
        // an older version, replayed or late, does not replace a newer one
        v.record_gaps("p1", 0, vec![]);
        v.record_gaps("p1", 1, vec![]);
        assert_eq!(v.gap_totals()["A"], (2, 7));
        assert_eq!(v.gap_totals()["B"], (1, 3));
        v.record_doc("p2", 1);
        assert_eq!(v.lagging_gaps(), [("p2".to_string(), 1)]);
    }
}
