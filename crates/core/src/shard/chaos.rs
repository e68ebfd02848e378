//! Deterministic distribution-layer fault injection.
//!
//! The sweep engine already has a cell-level fault plan; this driver
//! injects the *distributed* failure modes on top of a real
//! [`ShardBoard`]: worker death mid-range (lease expiry and
//! reassignment), duplicated segment uploads, delayed zombie uploads
//! arriving after expiry, and torn transfers. Every fate is drawn from a
//! seeded [`SplitMix64`] and time is a manual
//! [`Clock`](super::board::Clock), so a chaos run is a pure function of
//! `(spec, chaos_seed)` — the `shard-merge-identity` oracle replays it
//! and demands the merged journal and report stay byte-identical to an
//! undisturbed run.

use std::path::Path;

use tlp_tech::rng::SplitMix64;

use crate::chipstate::ExperimentalChip;

use super::board::{LeaseOffer, SegmentOutcome, ShardBoard};
use super::worker::compute_segment;
use super::ShardError;

/// Tally of what the chaos driver did to one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Leases granted over the whole run.
    pub leases: u64,
    /// Workers killed before uploading (lease left to expire).
    pub kills: u64,
    /// Segments uploaded twice back to back.
    pub duplicates: u64,
    /// Zombie uploads submitted after the lease expired.
    pub zombies: u64,
    /// Torn uploads (rejected, then retried intact).
    pub torn: u64,
}

/// One worker fate per granted lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Compute and upload normally.
    Normal,
    /// Die before uploading: the range's work is lost and the lease is
    /// left to expire (the `kill -9` of the in-process world).
    KillBeforeUpload,
    /// Upload, then upload the identical segment again.
    DuplicateUpload,
    /// Sleep past the lease deadline, then upload as a zombie — racing
    /// whichever worker the range was reassigned to.
    ZombieUpload,
    /// Upload a truncated segment first (must be rejected), then the
    /// intact one.
    TornUpload,
}

fn fate_for(rng: &mut SplitMix64) -> Fate {
    match rng.gen_range_u64(0..5) {
        0 => Fate::KillBeforeUpload,
        1 => Fate::DuplicateUpload,
        2 => Fate::ZombieUpload,
        3 => Fate::TornUpload,
        _ => Fate::Normal,
    }
}

/// Drives `shard_id` on `board` to completion while injecting
/// distribution-layer faults drawn from `chaos_seed`. `hands` must be
/// the handle of the manual [`Clock`](super::board::Clock) the board was
/// opened with; `scratch_dir` holds throwaway worker journals.
///
/// Progress is guaranteed: after a range has burned three faulted
/// leases its next lease is forced to a normal fate, so the loop always
/// terminates (and an iteration cap turns any regression into an error
/// instead of a hang).
///
/// # Errors
///
/// A rendered message if a worker sweep fails, the board returns an
/// unexpected outcome, or the run exceeds its iteration cap.
pub fn run_chaotic(
    board: &ShardBoard,
    chip: &ExperimentalChip,
    shard_id: &str,
    chaos_seed: u64,
    hands: &std::sync::Arc<std::sync::atomic::AtomicU64>,
    scratch_dir: &Path,
) -> Result<ChaosReport, String> {
    use std::sync::atomic::Ordering;

    let mut report = ChaosReport::default();
    let mut rng = SplitMix64::seed_from_u64(chaos_seed);
    let mut faults_per_range: std::collections::HashMap<(usize, usize), u32> =
        std::collections::HashMap::new();
    let total_ranges = board
        .view(shard_id)
        .map_err(|e| e.to_string())?
        .ranges
        .len()
        .max(1);
    let cap = total_ranges * 8 + 16;

    for step in 0..cap {
        let offer = board
            .lease(shard_id, &format!("chaos-{step}"))
            .map_err(|e| e.to_string())?;
        let grant = match offer {
            LeaseOffer::Complete => return Ok(report),
            LeaseOffer::Wait => {
                // Every open range is leased (to a worker this driver
                // already abandoned): jump time forward so those leases
                // expire and the ranges free up.
                hands.fetch_add(1 << 30, Ordering::SeqCst);
                continue;
            }
            LeaseOffer::Granted(g) => *g,
        };
        report.leases += 1;

        let key = (grant.range.lo, grant.range.hi);
        let strikes = faults_per_range.entry(key).or_insert(0);
        let fate = if *strikes >= 3 {
            Fate::Normal
        } else {
            fate_for(&mut rng)
        };
        if fate != Fate::Normal {
            *strikes += 1;
        }

        if fate == Fate::KillBeforeUpload {
            // The worker dies without uploading; expire its lease.
            report.kills += 1;
            hands.fetch_add(grant.lease_ms + 1, Ordering::SeqCst);
            continue;
        }

        let journal = scratch_dir.join(format!("chaos-{}.journal", grant.lease_id));
        let text = compute_segment(chip, &grant.job, grant.range, &journal, 1)?;
        let _ = std::fs::remove_file(&journal);

        let submit = |t: &str| board.submit_segment(&grant.lease_id, t, chip);
        match fate {
            Fate::Normal | Fate::DuplicateUpload => {
                expect_landed(submit(&text))?;
                if fate == Fate::DuplicateUpload {
                    report.duplicates += 1;
                    match submit(&text) {
                        Ok(SegmentOutcome::Duplicate) => {}
                        other => {
                            return Err(format!(
                                "duplicate upload must be idempotent, got {other:?}"
                            ))
                        }
                    }
                }
            }
            Fate::ZombieUpload => {
                // Outlive the lease, then upload anyway. The range may
                // have been reassigned and even completed by a later
                // worker in a later step — both accept and duplicate are
                // legal; silent loss or overwrite is not.
                report.zombies += 1;
                hands.fetch_add(grant.lease_ms + 1, Ordering::SeqCst);
                expect_landed(submit(&text))?;
            }
            Fate::TornUpload => {
                report.torn += 1;
                let torn = &text[..text.len().saturating_sub(9)];
                match submit(torn) {
                    Err(ShardError::SegmentRejected { .. }) => {}
                    other => return Err(format!("torn upload must be rejected, got {other:?}")),
                }
                expect_landed(submit(&text))?;
            }
            Fate::KillBeforeUpload => unreachable!("handled above"),
        }
    }
    Err(format!(
        "chaos run did not converge within {cap} leases (seed {chaos_seed:#x})"
    ))
}

/// An honest segment must land: freshly accepted, or deduplicated
/// against an identical earlier acceptance.
fn expect_landed(out: Result<SegmentOutcome, ShardError>) -> Result<(), String> {
    match out {
        Ok(SegmentOutcome::Accepted { .. }) | Ok(SegmentOutcome::Duplicate) => Ok(()),
        Err(e) => Err(format!("honest segment refused: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::ChipSpec;
    use tlp_tech::json::ToJson as _;
    use tlp_tech::Technology;
    use tlp_workloads::{AppId, Scale};

    use crate::journal::TempDir;
    use crate::serve::jobs::JobRecord;
    use crate::shard::board::Clock;

    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("tlp-shard-chaos-{tag}")).unwrap()
    }

    #[test]
    fn chaos_converges_and_reports_identically_to_a_direct_run() {
        let dir = temp_dir("conv");
        let (clock, hands) = Clock::manual(0);
        let board = ShardBoard::open(dir.0.join("board"), clock).unwrap();
        let chip = ExperimentalChip::from_spec(ChipSpec::ispass05(4), Technology::itrs_65nm());
        let job = JobRecord::new(vec![AppId::Fft, AppId::Lu], vec![1, 2], Scale::Test, 0x66);
        let view = board.create(job.clone(), 1, 30_000, &chip).unwrap();

        let tally =
            run_chaotic(&board, &chip, &view.id, 0xC0FFEE, &hands, &dir.0).expect("chaos run");
        assert!(tally.leases >= 2, "two ranges need at least two leases");

        let merged = board.report(&view.id).unwrap().expect("report");
        let direct = chip
            .sweep()
            .grid(job.spec())
            .threads(1)
            .run()
            .unwrap()
            .to_json();
        assert_eq!(merged.to_string_pretty(), direct.to_string_pretty());
    }
}
