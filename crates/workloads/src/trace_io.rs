//! Trace import/export: a line-oriented text format for persistent-store
//! traces, so externally captured traces (e.g. from a PIN/valgrind tool
//! on a real PM application) can be replayed through the simulator, and
//! generated traces can be inspected or archived.
//!
//! Format (one op per line; `#` starts a comment):
//!
//! ```text
//! # thoth-trace v1
//! core <n>            — begin core n's stream (cores in order)
//! warmup <txs>        — warm-up transactions per core (once, at the top)
//! R <addr> <len>      — read
//! W <addr> <len>      — persistent store
//! V <addr> <len>      — relaxed store (volatile until flushed; mov+clwb)
//! F <addr> <len>      — cache-line write-back (clwb)
//! B                   — persist barrier (sfence) without commit
//! C                   — commit (persist barrier)
//! ```
//!
//! Addresses accept decimal or `0x…` hex.

use crate::runtime::{CoreTrace, MultiCoreTrace, TraceOp, DATA_REGION_BYTES};
use std::fmt::Write as _;

/// The longest op the parser accepts, in bytes: one 4 KiB page. The
/// generators emit at most 2048 B (the paper's largest transaction), and
/// the replay walks an op block by block, so a longer one only slows it.
pub const MAX_OP_BYTES: u32 = 4096;

/// Errors produced when parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a trace to the text format.
#[must_use]
pub fn to_text(trace: &MultiCoreTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# thoth-trace v1");
    let _ = writeln!(out, "warmup {}", trace.warmup_txs_per_core);
    for (i, core) in trace.cores.iter().enumerate() {
        let _ = writeln!(out, "core {i}");
        for op in core.iter() {
            match op {
                TraceOp::Read { addr, len } => {
                    let _ = writeln!(out, "R {addr:#x} {len}");
                }
                TraceOp::Store { addr, len } => {
                    let _ = writeln!(out, "W {addr:#x} {len}");
                }
                TraceOp::StoreRelaxed { addr, len } => {
                    let _ = writeln!(out, "V {addr:#x} {len}");
                }
                TraceOp::Flush { addr, len } => {
                    let _ = writeln!(out, "F {addr:#x} {len}");
                }
                TraceOp::Fence => {
                    let _ = writeln!(out, "B");
                }
                TraceOp::Commit => {
                    let _ = writeln!(out, "C");
                }
            }
        }
    }
    out
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, ParseError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    parsed.map_err(|_| ParseError {
        line,
        message: format!("invalid number {tok:?}"),
    })
}

/// Parses the text format back into a trace.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for malformed
/// input: unknown directives, missing or non-numeric operands, a length
/// wider than 32 bits or longer than [`MAX_OP_BYTES`], a range past the
/// end of the [`DATA_REGION_BYTES`] data region, ops before the first
/// `core` directive, out-of-order core numbering, or a nonzero `warmup`
/// that leaves no core a measured transaction.
pub fn from_text(text: &str) -> Result<MultiCoreTrace, ParseError> {
    // Each core records into a `Vec`, converted once at the end.
    let mut cores: Vec<Vec<TraceOp>> = Vec::new();
    let mut warmup = 0;
    let mut warmup_line = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut toks = content.split_whitespace();
        let op = toks.next().expect("non-empty line has a token");
        let expect_end = |mut t: std::str::SplitWhitespace<'_>| -> Result<(), ParseError> {
            match t.next() {
                None => Ok(()),
                Some(extra) => Err(ParseError {
                    line,
                    message: format!("unexpected trailing token {extra:?}"),
                }),
            }
        };
        match op {
            "warmup" => {
                let n = parse_u64(
                    toks.next().ok_or(ParseError {
                        line,
                        message: "warmup needs a count".into(),
                    })?,
                    line,
                )?;
                expect_end(toks)?;
                warmup = n as usize;
                warmup_line = line;
            }
            "core" => {
                let n = parse_u64(
                    toks.next().ok_or(ParseError {
                        line,
                        message: "core needs an index".into(),
                    })?,
                    line,
                )? as usize;
                expect_end(toks)?;
                if n != cores.len() {
                    return Err(ParseError {
                        line,
                        message: format!("core {n} out of order (expected {})", cores.len()),
                    });
                }
                cores.push(Vec::new());
            }
            "R" | "W" | "V" | "F" => {
                let addr = parse_u64(
                    toks.next().ok_or(ParseError {
                        line,
                        message: format!("{op} needs an address"),
                    })?,
                    line,
                )?;
                let len = parse_u64(
                    toks.next().ok_or(ParseError {
                        line,
                        message: format!("{op} needs a length"),
                    })?,
                    line,
                )?;
                let len = u32::try_from(len).map_err(|_| ParseError {
                    line,
                    message: format!("length {len} does not fit in 32 bits"),
                })?;
                if len > MAX_OP_BYTES {
                    return Err(ParseError {
                        line,
                        message: format!("length {len} exceeds the {MAX_OP_BYTES} B limit per op"),
                    });
                }
                // A zero-length op still touches the block at `addr`.
                let end = addr.checked_add(u64::from(len.max(1)));
                if end.is_none_or(|end| end > DATA_REGION_BYTES) {
                    return Err(ParseError {
                        line,
                        message: format!(
                            "{op} {addr:#x} {len} runs past the address space's {} GiB \
                             data region",
                            DATA_REGION_BYTES >> 30
                        ),
                    });
                }
                expect_end(toks)?;
                let core = cores.last_mut().ok_or(ParseError {
                    line,
                    message: "op before any `core` directive".into(),
                })?;
                core.push(match op {
                    "R" => TraceOp::Read { addr, len },
                    "W" => TraceOp::Store { addr, len },
                    "V" => TraceOp::StoreRelaxed { addr, len },
                    _ => TraceOp::Flush { addr, len },
                });
            }
            "C" | "B" => {
                expect_end(toks)?;
                let core = cores.last_mut().ok_or(ParseError {
                    line,
                    message: "op before any `core` directive".into(),
                })?;
                core.push(if op == "C" {
                    TraceOp::Commit
                } else {
                    TraceOp::Fence
                });
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unknown directive {other:?}"),
                });
            }
        }
    }
    // A warm-up that spans every core's whole trace leaves nothing to measure.
    let commits = |ops: &[TraceOp]| ops.iter().filter(|op| matches!(op, TraceOp::Commit)).count();
    if warmup > 0 && cores.iter().all(|ops| commits(ops) <= warmup) {
        return Err(ParseError {
            line: warmup_line,
            message: format!("warmup {warmup} leaves no core a measured transaction"),
        });
    }
    Ok(MultiCoreTrace {
        cores: cores.into_iter().map(CoreTrace::from).collect(),
        warmup_txs_per_core: warmup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{self, WorkloadConfig, WorkloadKind};

    #[test]
    fn roundtrips_a_generated_trace() {
        let mut cfg = WorkloadConfig::paper_default(WorkloadKind::Ctree).scaled(0.01);
        cfg.cores = 2;
        cfg.footprint = 500;
        cfg.prepopulate = 250;
        let trace = spec::generate(cfg);
        let text = to_text(&trace);
        let back = from_text(&text).expect("parse");
        assert_eq!(back.cores, trace.cores);
        assert_eq!(back.warmup_txs_per_core, trace.warmup_txs_per_core);
    }

    #[test]
    fn parses_hand_written_trace() {
        let text = "\
# a tiny two-core trace
warmup 1
core 0
W 0x1000 64   # data
W 0x1040 8
C
R 4096 16
W 0x1000 64
C
core 1
W 0x200000 128
C
";
        let t = from_text(text).expect("parse");
        assert_eq!(t.cores.len(), 2);
        assert_eq!(t.warmup_txs_per_core, 1);
        assert_eq!(t.total_txs(), 3);
        assert_eq!(t.total_stores(), 4);
        assert_eq!(
            t.cores[0][0],
            TraceOp::Store {
                addr: 0x1000,
                len: 64
            }
        );
        assert_eq!(t.cores[0][3], TraceOp::Read { addr: 4096, len: 16 });
    }

    #[test]
    fn relaxed_flush_fence_ops_roundtrip() {
        let text = "\
core 0
V 0x1000 64
F 0x1000 64
B
W 0x2000 8
C
";
        let t = from_text(text).expect("parse");
        assert_eq!(
            *t.cores[0],
            [
                TraceOp::StoreRelaxed { addr: 0x1000, len: 64 },
                TraceOp::Flush { addr: 0x1000, len: 64 },
                TraceOp::Fence,
                TraceOp::Store { addr: 0x2000, len: 8 },
                TraceOp::Commit,
            ]
        );
        assert_eq!(t.total_stores(), 2, "relaxed stores count as stores");
        let back = from_text(&to_text(&t)).expect("reparse");
        assert_eq!(back.cores, t.cores);
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, needle) in [
            ("W 0x10 8", "before any"),
            ("core 1", "out of order"),
            ("core 0\nW zzz 8", "invalid number"),
            ("core 0\nW 0x10", "needs a length"),
            ("bogus", "unknown directive"),
            ("core 0\nC extra", "trailing"),
            ("core 0\nW 0x0 4294967296", "32 bits"),
            ("core 0\nW 0xffffffffffffffff 64", "past the address space"),
            ("core 0\nW 0x400000000 64\nC", "data region"),
            ("core 0\nW 0x1000 4000000000\nC", "limit per op"),
            ("warmup 99999999999\ncore 0\nW 0x1000 64\nC", "no core a measured"),
        ] {
            let err = from_text(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "{text:?} -> {err}"
            );
        }
        let err = from_text("core 0\nW 0x10 8\nW bad 8").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn roundtrips_every_workload_and_survives_mutations() {
        let texts: Vec<String> = WorkloadKind::EXTENDED
            .into_iter()
            .map(|kind| {
                let mut cfg = WorkloadConfig::at_scale(kind, 0.002);
                cfg.cores = 2;
                let trace = spec::generate(cfg);
                let text = to_text(&trace);
                let back = from_text(&text).expect("exported text parses");
                assert_eq!(back.cores, trace.cores, "{kind}");
                assert_eq!(
                    back.warmup_txs_per_core, trace.warmup_txs_per_core,
                    "{kind}"
                );
                text
            })
            .collect();
        // One seeded single-line mutation per case: the parser returns
        // `Ok` or `Err`, never panics.
        thoth_testkit::check(512, |g| {
            let text = &texts[g.below(texts.len() as u64) as usize];
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let i = g.below(lines.len() as u64) as usize;
            match g.below(4) {
                0 => {
                    let mut toks: Vec<&str> = lines[i].split_whitespace().collect();
                    toks.remove(g.below(toks.len() as u64) as usize);
                    lines[i] = toks.join(" ");
                }
                1 => {
                    let cut = g.below(lines[i].len() as u64 + 1) as usize;
                    lines[i].truncate(cut);
                }
                2 => {
                    let moved = lines.remove(g.below(lines.len() as u64) as usize);
                    lines.insert(i, moved);
                }
                _ => {
                    const SUBSTITUTES: [char; 10] =
                        ['0', '9', 'f', 'x', 'W', 'C', '#', ' ', '-', 'é'];
                    let at = g.below(lines[i].len() as u64) as usize;
                    let sub = SUBSTITUTES[g.below(SUBSTITUTES.len() as u64) as usize];
                    lines[i].replace_range(at..=at, sub.encode_utf8(&mut [0; 4]));
                }
            }
            let _ = from_text(&lines.join("\n"));
        });
    }

    #[test]
    fn imported_trace_runs_through_the_simulator() {
        let text = "\
core 0
W 0x1000 128
C
W 0x1000 128
W 0x2000 128
C
";
        let t = from_text(text).expect("parse");
        // (Simulating happens in thoth-sim; here we only sanity-check the
        // structure round-trips and counts.)
        assert_eq!(t.total_txs(), 2);
        assert_eq!(to_text(&t).matches('\n').count(), 8);
    }
}
