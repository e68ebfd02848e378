//! Shared command-line flag parsing for the `cmp-tlp` CLI and the
//! `tlp-bench` figure binaries.
//!
//! Every front end in the workspace speaks the same flag dialect —
//! `--json`, `--paper`/`--quick`, `--threads N`, `--trace PATH`,
//! `--trace-summary` — but until this module each binary re-implemented
//! the parsing. [`CommonArgs::parse`] strips the shared flags out of an
//! argument vector (leaving positional arguments and command-specific
//! flags untouched) and returns them as one typed struct, including a
//! ready-made [`TraceSink`].

use tlp_workloads::Scale;

use crate::sweep::TraceSink;

/// The seed every experiment front end uses by default (results are
/// bit-reproducible).
pub const DEFAULT_SEED: u64 = 0x1595_2005;

/// Which workload scale an unadorned invocation gets. The CLI defaults
/// small and upgrades with `--paper`; the figure binaries default to
/// full paper scale and downgrade with `--quick`. Both flags are always
/// accepted; the convention only picks the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDefault {
    /// Default [`Scale::Small`]; `--paper` selects [`Scale::Paper`]
    /// (the `cmp-tlp` CLI convention).
    Small,
    /// Default [`Scale::Paper`]; `--quick` selects [`Scale::Small`]
    /// (the `tlp-bench` figure-binary convention).
    Paper,
}

/// The flags shared by every front end, parsed and stripped from the
/// argument vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--json`: machine-readable output.
    pub json: bool,
    /// Workload scale after `--paper`/`--quick` against the convention's
    /// default.
    pub scale: Scale,
    /// `--threads N`: sweep worker threads (`0` = all available cores).
    pub threads: usize,
    /// `--trace PATH`: write a Chrome `trace_event` JSON file here.
    pub trace: Option<String>,
    /// `--trace-summary`: print the human trace summary to stderr.
    pub trace_summary: bool,
}

impl CommonArgs {
    /// Parses and removes the shared flags from `args` (everything else
    /// is left in place, in order).
    ///
    /// # Errors
    ///
    /// A human-readable message for a malformed flag value (missing or
    /// non-numeric `--threads` count, missing `--trace` path).
    pub fn parse(args: &mut Vec<String>, convention: ScaleDefault) -> Result<Self, String> {
        let json = take_flag(args, "--json");
        let paper = take_flag(args, "--paper");
        let quick = take_flag(args, "--quick");
        let scale = if paper {
            Scale::Paper
        } else if quick {
            Scale::Small
        } else {
            match convention {
                ScaleDefault::Small => Scale::Small,
                ScaleDefault::Paper => Scale::Paper,
            }
        };
        let threads = match take_value(args, "--threads")? {
            None => 0,
            Some(s) => {
                let n: usize = s.parse().map_err(|_| format!("bad thread count '{s}'"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                n
            }
        };
        let trace = take_value(args, "--trace")?;
        let trace_summary = take_flag(args, "--trace-summary");
        Ok(Self {
            json,
            scale,
            threads,
            trace,
            trace_summary,
        })
    }

    /// The [`TraceSink`] these flags request (inactive when neither
    /// `--trace` nor `--trace-summary` was given).
    pub fn sink(&self) -> TraceSink {
        let mut sink = TraceSink::none();
        if let Some(path) = &self.trace {
            sink = sink.and_chrome(path);
        }
        if self.trace_summary {
            sink = sink.and_summary();
        }
        sink
    }
}

/// The chip-shape flags shared by every front end that runs a sweep:
/// `--cores LIST`, `--server-load RPS` (repeatable), `--core-mix
/// BIG:LITTLE`, `--budget AREA_MM2:TDP_WATTS`. Parsed once here so the
/// `sweep` subcommand, daemon-submitted jobs, and resume recipes all
/// speak — and round-trip — the same dialect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChipArgs {
    /// `--cores 1,2,4,8`: explicit core-count axis (always includes the
    /// `n = 1` anchor; sorted, deduplicated). `None` keeps the front
    /// end's default grid.
    pub cores: Option<Vec<usize>>,
    /// `--server-load RPS`, repeatable: open-loop server rows to add to
    /// the grid (offered requests/second each).
    pub server_loads: Vec<u32>,
    /// `--core-mix BIG:LITTLE`: run on a heterogeneous big.LITTLE
    /// [`ChipSpec`](tlp_sim::ChipSpec) instead of the homogeneous
    /// 16-way default.
    pub core_mix: Option<(usize, usize)>,
    /// `--budget AREA_MM2:TDP_WATTS`: arm dark-silicon budget axes on
    /// the sweep report.
    pub budget: Option<(f64, f64)>,
}

impl ChipArgs {
    /// Parses and removes the chip-shape flags from `args`.
    ///
    /// # Errors
    ///
    /// A human-readable message for a malformed value (non-numeric or
    /// empty `--cores` list, zero `--server-load`, a `--core-mix` with
    /// no cores or more than 1024, non-positive `--budget` axes).
    pub fn parse(args: &mut Vec<String>) -> Result<Self, String> {
        let cores = match take_value(args, "--cores")? {
            None => None,
            Some(list) => Some(parse_core_counts("--cores entry", list.split(','))?),
        };
        let mut server_loads: Vec<u32> = Vec::new();
        while let Some(v) = take_value(args, "--server-load")? {
            let rps: u32 = v
                .parse()
                .ok()
                .filter(|&rps| rps >= 1)
                .ok_or_else(|| format!("bad --server-load '{v}' (requests/second >= 1)"))?;
            server_loads.push(rps);
        }
        let core_mix = match take_value(args, "--core-mix")? {
            None => None,
            Some(v) => Some(parse_core_mix(&v)?),
        };
        let budget = match take_value(args, "--budget")? {
            None => None,
            Some(v) => Some(parse_budget(&v)?),
        };
        Ok(Self {
            cores,
            server_loads,
            core_mix,
            budget,
        })
    }

    /// The flag fragment that reproduces these axes verbatim — appended
    /// to resume recipes so an interrupted heterogeneous or budgeted
    /// sweep resumes as exactly the same experiment.
    pub fn recipe_fragment(&self) -> String {
        let mut out = String::new();
        if let Some(counts) = &self.cores {
            let list: Vec<String> = counts.iter().map(usize::to_string).collect();
            out.push_str(&format!(" --cores {}", list.join(",")));
        }
        for rps in &self.server_loads {
            out.push_str(&format!(" --server-load {rps}"));
        }
        if let Some((big, little)) = self.core_mix {
            out.push_str(&format!(" --core-mix {big}:{little}"));
        }
        if let Some((area, tdp)) = self.budget {
            out.push_str(&format!(" --budget {area}:{tdp}"));
        }
        out
    }
}

/// Parses one core count (at least 1); `what` names the input in the
/// error message.
///
/// # Errors
///
/// A human-readable message for a non-numeric or zero count.
pub fn parse_core_count(what: &str, value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("bad {what} '{value}' (core count >= 1)"))
}

/// Parses a core-count axis: the `n = 1` anchor plus every count in
/// `values`, sorted and deduplicated.
///
/// # Errors
///
/// As for [`parse_core_count`], on the first bad entry.
pub fn parse_core_counts<'a>(
    what: &str,
    values: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<usize>, String> {
    let mut counts = vec![1];
    for value in values {
        counts.push(parse_core_count(what, value)?);
    }
    counts.sort_unstable();
    counts.dedup();
    Ok(counts)
}

/// Parses `BIG:LITTLE` into a validated core mix (1..=1024 total).
///
/// # Errors
///
/// A human-readable message when the value is not two counts or the
/// total is out of range.
pub fn parse_core_mix(value: &str) -> Result<(usize, usize), String> {
    let err = || format!("bad --core-mix '{value}' (expected BIG:LITTLE, 1..=1024 cores total)");
    let (big, little) = value.split_once(':').ok_or_else(err)?;
    let big: usize = big.trim().parse().map_err(|_| err())?;
    let little: usize = little.trim().parse().map_err(|_| err())?;
    if !(1..=1024).contains(&(big + little)) {
        return Err(err());
    }
    Ok((big, little))
}

/// Parses `AREA_MM2:TDP_WATTS` into validated budget axes (both
/// positive and finite).
///
/// # Errors
///
/// A human-readable message when either axis is missing, non-numeric,
/// non-positive, or non-finite.
pub fn parse_budget(value: &str) -> Result<(f64, f64), String> {
    let err = || format!("bad --budget '{value}' (expected AREA_MM2:TDP_WATTS, both positive)");
    let (area, tdp) = value.split_once(':').ok_or_else(err)?;
    let area: f64 = area.trim().parse().map_err(|_| err())?;
    let tdp: f64 = tdp.trim().parse().map_err(|_| err())?;
    if !(area.is_finite() && area > 0.0 && tdp.is_finite() && tdp > 0.0) {
        return Err(err());
    }
    Ok((area, tdp))
}

/// Removes every occurrence of `flag`; returns whether any was present.
/// Public for the same reason as [`take_value`]: subcommands strip
/// their own boolean flags with the shared dialect.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Removes `flag VALUE` from `args`; returns the value if the flag was
/// present. Public so subcommands can strip their own value flags (the
/// sweep's `--checkpoint PATH` / `--resume PATH` / `--cell-deadline S`)
/// with the same dialect as the shared ones.
///
/// # Errors
///
/// When the flag is present without a following value.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Parses a `u64` accepting both decimal and `0x`-prefixed hex — the
/// format failure reports print seeds in.
///
/// # Errors
///
/// A human-readable message when `value` is absent or unparseable.
pub fn parse_u64_flag(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let s = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("bad value '{s}' for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn strips_shared_flags_and_leaves_the_rest() {
        let mut a = args(&["sweep", "--json", "fft", "--threads", "4", "--paper"]);
        let c = CommonArgs::parse(&mut a, ScaleDefault::Small).unwrap();
        assert_eq!(a, args(&["sweep", "fft"]));
        assert!(c.json);
        assert_eq!(c.scale, Scale::Paper);
        assert_eq!(c.threads, 4);
        assert!(c.trace.is_none() && !c.trace_summary);
        assert!(!c.sink().is_active());
    }

    #[test]
    fn conventions_pick_the_default_scale() {
        let mut a = args(&[]);
        assert_eq!(
            CommonArgs::parse(&mut a, ScaleDefault::Small)
                .unwrap()
                .scale,
            Scale::Small
        );
        assert_eq!(
            CommonArgs::parse(&mut a, ScaleDefault::Paper)
                .unwrap()
                .scale,
            Scale::Paper
        );
        let mut q = args(&["--quick"]);
        assert_eq!(
            CommonArgs::parse(&mut q, ScaleDefault::Paper)
                .unwrap()
                .scale,
            Scale::Small
        );
    }

    #[test]
    fn trace_flags_build_an_active_sink() {
        let mut a = args(&["--trace", "out.json", "--trace-summary", "check"]);
        let c = CommonArgs::parse(&mut a, ScaleDefault::Small).unwrap();
        assert_eq!(a, args(&["check"]));
        assert_eq!(c.trace.as_deref(), Some("out.json"));
        assert!(c.trace_summary);
        assert!(c.sink().is_active());
    }

    #[test]
    fn malformed_thread_counts_are_rejected() {
        let mut a = args(&["--threads"]);
        assert!(CommonArgs::parse(&mut a, ScaleDefault::Small).is_err());
        let mut b = args(&["--threads", "zero"]);
        assert!(CommonArgs::parse(&mut b, ScaleDefault::Small).is_err());
        let mut z = args(&["--threads", "0"]);
        assert!(CommonArgs::parse(&mut z, ScaleDefault::Small).is_err());
    }

    #[test]
    fn chip_args_parse_and_round_trip() {
        let mut a = args(&[
            "fft",
            "--cores",
            "4,2,4,8",
            "--server-load",
            "1000000",
            "--core-mix",
            "4:12",
            "--budget",
            "111:125",
            "--server-load",
            "2000000",
        ]);
        let c = ChipArgs::parse(&mut a).unwrap();
        assert_eq!(a, args(&["fft"]));
        // The n = 1 anchor is always present; duplicates collapse.
        assert_eq!(c.cores.as_deref(), Some(&[1, 2, 4, 8][..]));
        assert_eq!(c.server_loads, vec![1_000_000, 2_000_000]);
        assert_eq!(c.core_mix, Some((4, 12)));
        assert_eq!(c.budget, Some((111.0, 125.0)));
        // The recipe fragment reproduces every axis verbatim.
        let frag = c.recipe_fragment();
        assert_eq!(
            frag,
            " --cores 1,2,4,8 --server-load 1000000 --server-load 2000000 \
             --core-mix 4:12 --budget 111:125"
        );
        // And parsing the fragment back yields the same axes.
        let mut again: Vec<String> = frag.split_whitespace().map(str::to_string).collect();
        assert_eq!(ChipArgs::parse(&mut again).unwrap(), c);
    }

    #[test]
    fn absent_chip_flags_leave_the_defaults() {
        let mut a = args(&["sweep", "fft"]);
        let c = ChipArgs::parse(&mut a).unwrap();
        assert_eq!(c, ChipArgs::default());
        assert_eq!(c.recipe_fragment(), "");
        assert_eq!(a, args(&["sweep", "fft"]));
    }

    #[test]
    fn malformed_chip_flags_are_rejected() {
        for bad in [
            vec!["--cores", "0"],
            vec!["--cores", "two"],
            vec!["--cores", ""],
            vec!["--server-load", "0"],
            vec!["--core-mix", "16"],
            vec!["--core-mix", "0:0"],
            vec!["--core-mix", "1024:1"],
            vec!["--core-mix", "big:little"],
            vec!["--budget", "111"],
            vec!["--budget", "-1:125"],
            vec!["--budget", "111:nan"],
        ] {
            let mut a = args(&bad);
            assert!(ChipArgs::parse(&mut a).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn u64_flags_accept_hex_and_decimal() {
        assert_eq!(
            parse_u64_flag("--seed", Some(&"0xD1CE".to_string())).unwrap(),
            0xD1CE
        );
        assert_eq!(
            parse_u64_flag("--seed", Some(&"42".to_string())).unwrap(),
            42
        );
        assert!(parse_u64_flag("--seed", None).is_err());
        assert!(parse_u64_flag("--seed", Some(&"xyz".to_string())).is_err());
    }
}
