//! The per-layer ledger of a traced run. Every workload reports every
//! layer: a layer its operations do not pass through is still measured
//! once on that workload's own output (see RATIONALE.md), so no figure is
//! a placeholder.

use std::path::Path;
use std::time::Instant;

use cmp_tlp::{SweepReport, SweepSpec};

use crate::daemon::Job;
use crate::probes::{JournalProbe, JsonProbe};
use crate::replay::Rep;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{probes, Args, Outcome, SETUP_REPS};

/// Client-side HTTP figures, one entry per request.
#[derive(Debug, Default)]
pub struct Http {
    pub submit_s: Vec<f64>,
    pub poll_s: Vec<f64>,
    pub report_s: Vec<f64>,
    pub health_s: Vec<f64>,
    pub jobs: u64,
    pub polls: u64,
    pub held_full: u64,
    pub non2xx: u64,
}

impl Http {
    /// Adds one job's requests, and records them as spans under a
    /// `serve.job` span covering `at`.
    pub fn add(&mut self, job: &Job, at: (Instant, Instant), rec: &mut Recorder) {
        let root = rec.record("serve.job", at, None);
        let secs = |(a, b): (Instant, Instant)| b.duration_since(a).as_secs_f64();
        if let Some(t) = job.submit {
            self.submit_s.push(secs(t));
            rec.record("serve.submit", t, Some(root));
        }
        for &t in &job.poll {
            self.poll_s.push(secs(t));
            rec.record("serve.poll", t, Some(root));
        }
        if let Some(t) = job.fetch {
            self.report_s.push(secs(t));
            rec.record("serve.report", t, Some(root));
        }
        self.jobs += 1;
        self.polls += u64::from(job.polls);
        self.held_full += u64::from(job.held_full);
        self.non2xx += u64::from(job.non2xx);
    }
}

/// Everything one traced run measured.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Replayed grids; counts are taken from the first.
    pub reps: Vec<Rep>,
    /// Untraced makespan and untraced serial wall time of each replayed
    /// grid, seconds.
    pub makespan_s: Vec<f64>,
    pub serial_s: Vec<f64>,
    /// Pool threads of the untraced runs.
    pub threads: usize,
    /// Failed cells and retry attempts in the untraced reports.
    pub cells_failed: u64,
    pub retries: u64,
    pub journal: JournalProbe,
    pub create_first_s: f64,
    pub create_last_s: f64,
    pub http: Http,
    pub json: Vec<JsonProbe>,
    pub chip_s: Vec<f64>,
    pub ready_s: Vec<f64>,
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Ledger {
    /// Pushes every per-layer metric, in one fixed order.
    pub fn emit(&self, out: &mut Outcome) {
        let reps = &self.reps;
        let per = |f: fn(&Rep) -> f64| med(&reps.iter().map(f).collect::<Vec<_>>());
        let first = reps.first().cloned().unwrap_or_default();
        let ms = 1e3;

        out.metric("workloads.gen_s", per(|r| r.gen_s), "s");
        out.metric("workloads.ops", first.ops as f64, "count");

        let run_s = per(|r| r.run_s);
        out.metric("sim.run_s", run_s, "s");
        out.metric("sim.self_s", per(|r| r.run_s - r.run_gen_s), "s");
        out.metric(
            "sim.mips",
            per(|r| ratio(r.instructions as f64, r.run_s) / 1e6),
            "Minstr/s",
        );
        out.metric(
            "sim.host_ns_per_cycle",
            per(|r| ratio(r.run_s * 1e9, r.cycles as f64)),
            "ns",
        );
        out.metric("sim.instructions", first.instructions as f64, "count");
        out.metric("sim.cycles", first.cycles as f64, "count");
        out.metric(
            "sim.wait_share",
            ratio(first.wait_core_cycles as f64, first.core_cycles as f64),
            "ratio",
        );
        out.metric(
            "sim.ff_share",
            ratio(first.ff_cycles as f64, first.cycles as f64),
            "ratio",
        );

        out.metric("profile.s", per(|r| r.profile_s), "s");
        out.metric("measure.s", per(|r| r.measure_s), "s");
        out.metric(
            "measure.fixpoint_iters",
            first.fixpoint_iters as f64,
            "count",
        );

        out.metric("sweep.busy_s", per(|r| r.busy_s), "s");
        out.metric("sweep.critical_path_s", per(|r| r.critical_path_s), "s");
        let efficiency: Vec<f64> = reps
            .iter()
            .zip(&self.makespan_s)
            .map(|(r, m)| ratio(r.busy_s, self.threads as f64 * m))
            .collect();
        out.metric("pool.efficiency", med(&efficiency), "ratio");
        out.metric("sweep.cells_failed", self.cells_failed as f64, "count");
        out.metric("sweep.retries", self.retries as f64, "count");

        out.metric("journal.append_ms", med(&self.journal.append_s) * ms, "ms");
        out.metric(
            "journal.write_amplification",
            ratio(self.journal.flushed as f64, self.journal.final_size as f64),
            "ratio",
        );

        out.metric("jobs.create_ms_first", self.create_first_s * ms, "ms");
        out.metric("jobs.create_ms_last", self.create_last_s * ms, "ms");

        let h = &self.http;
        out.metric("serve.submit_ms", med(&h.submit_s) * ms, "ms");
        out.metric("serve.poll_ms", med(&h.poll_s) * ms, "ms");
        out.metric("serve.report_ms", med(&h.report_s) * ms, "ms");
        out.metric("serve.health_ms", med(&h.health_s) * ms, "ms");
        out.metric(
            "serve.polls_per_job",
            ratio(h.polls as f64, h.jobs as f64),
            "count",
        );
        out.metric(
            "serve.polls_held_full",
            ratio(100.0 * h.held_full as f64, h.jobs as f64),
            "count/100jobs",
        );
        out.metric("serve.http_non2xx", h.non2xx as f64, "count");

        let json = &self.json;
        let jmed = |f: fn(&JsonProbe) -> f64| med(&json.iter().map(f).collect::<Vec<_>>());
        out.metric("json.render_ms", jmed(|j| j.render_s) * ms, "ms");
        out.metric("json.parse_ms", jmed(|j| j.parse_s) * ms, "ms");
        out.metric(
            "json.report_bytes",
            json.first().map_or(0.0, |j| j.bytes as f64),
            "B",
        );

        out.metric("setup.chip_s", med(&self.chip_s), "s");
        out.metric("setup.ready_s", med(&self.ready_s), "s");

        out.metric("trace.unattributed_s", per(|r| r.unattributed_s), "s");
        // Traced replay against the same grid run untraced and serially.
        // The standalone drains are benchmark work the untraced run does
        // not do, so they are left out of the traced side.
        let overhead: Vec<f64> = reps
            .iter()
            .zip(&self.serial_s)
            .map(|(r, s)| ratio(r.wall_s - r.drain_s, *s))
            .collect();
        out.metric("trace.overhead", med(&overhead), "ratio");

        out.note(format!(
            "traced: {} replayed grid(s), {} job(s) through the daemon, \
             unattributed {:.2}% of replay wall",
            reps.len(),
            h.jobs,
            100.0 * ratio(per(|r| r.unattributed_s), per(|r| r.wall_s)),
        ));
    }
}

/// The journal replay and the job-store creates of a traced run, on
/// `report` (a grid of `spec`) and the daemon store in `store`.
pub fn probe(
    out: &mut Outcome,
    ledger: &mut Ledger,
    args: &Args,
    spec: &SweepSpec,
    report: &SweepReport,
    store: &Path,
) {
    match probes::journal_replay(&args.dir.join("replay.journal"), spec, report) {
        Ok(j) => ledger.journal = j,
        Err(e) => {
            out.note(format!("journal replay failed: {e}"));
            out.failed += 1;
        }
    }
    let copy = args.dir.join("store-copy");
    let created =
        probes::create_s(&args.dir.join("store-empty"), spec, SETUP_REPS).and_then(|first| {
            let history = probes::copy_records(store, &copy)?;
            let last = probes::create_s(&copy, spec, SETUP_REPS)?;
            Ok((first, last, history))
        });
    match created {
        Ok((first, last, history)) => {
            ledger.create_first_s = first;
            ledger.create_last_s = last;
            out.note(format!(
                "job store history at the end of the run: {history} record(s)"
            ));
        }
        Err(e) => {
            out.note(format!("job store probe failed: {e}"));
            out.failed += 1;
        }
    }
}

/// Writes the traced run's spans next to the run's scratch directory.
pub fn write_spans(out: &mut Outcome, rec: &Recorder, args: &Args) {
    let path = args
        .dir
        .with_file_name(format!("trace-{}-{:x}.jsonl", args.workload, args.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!(
            "spans could not be written to {}: {e}",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_tlp::tech::json::Json;

    fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
        match doc {
            Json::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    #[test]
    fn the_ledger_emits_the_contracts_per_layer_metrics_in_order() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Arr(entries) = field(&doc, "per_layer") else {
            panic!("per_layer is not an array");
        };
        let text_of = |j: &Json| match j {
            Json::Str(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        };
        let want: Vec<(String, String)> = entries
            .iter()
            .map(|e| (text_of(field(e, "name")), text_of(field(e, "unit"))))
            .collect();
        let mut out = Outcome::default();
        Ledger::default().emit(&mut out);
        let got: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, want);
    }
}
