//! The sweep behind Figures 11 and 12: Thoth-WTSC's speedup over the
//! baseline on every paper workload as one machine parameter moves, at
//! 128 B and 256 B blocks. [`crate::cachesweep`] and [`crate::wpqsweep`]
//! supply the points.

use crate::gmean;
use crate::runner::{run_jobs, ExpSettings, Job, TraceCache};
use crate::tablefmt::Table;

use thoth_sim::{Mode, SimConfig};
use thoth_workloads::WorkloadKind;

/// Runs every `(label, edit)` point, where `edit` changes both machines'
/// configuration, over 5 workloads × {128, 256} B blocks × {baseline,
/// thoth-wtsc} through [`run_jobs`]. Renders one table per block size,
/// titled `"{title} ({block} B blocks)"`: a speedup column per point, a
/// row per workload and a gmean row.
#[must_use]
pub fn run<E: Fn(&mut SimConfig)>(
    settings: ExpSettings,
    title: &str,
    points: &[(String, E)],
) -> Vec<Table> {
    const BLOCKS: [usize; 2] = [128, 256];
    let mut cache = TraceCache::new(settings);
    let mut jobs = Vec::new();
    for block in BLOCKS {
        for kind in WorkloadKind::ALL {
            let trace = cache.get(kind, 128);
            for (label, edit) in points {
                for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
                    let mut config = SimConfig::paper_default(mode, block);
                    edit(&mut config);
                    jobs.push(Job {
                        key: (kind.name(), block, label.clone(), mode.label()),
                        config,
                        trace: trace.clone(),
                    });
                }
            }
        }
    }
    // Results come back in submission order: a (baseline, thoth) pair
    // per point, points within workloads within blocks.
    let mut reports = run_jobs(jobs).into_iter().map(|(_, report)| report);
    let header: Vec<&str> = std::iter::once("workload")
        .chain(points.iter().map(|(label, _)| label.as_str()))
        .collect();
    let mut tables = Vec::new();
    for block in BLOCKS {
        let mut table = Table::new(&format!("{title} ({block} B blocks)"), &header);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
        for kind in WorkloadKind::ALL {
            let mut vals = Vec::new();
            for col in &mut cols {
                let base = reports.next().expect("a baseline run per point");
                let thoth = reports.next().expect("a thoth run per point");
                let s = thoth.speedup_over(&base);
                col.push(s);
                vals.push(s);
            }
            table.row_f(kind.name(), &vals);
        }
        let gmeans: Vec<f64> = cols.iter().map(|c| gmean(c)).collect();
        table.row_f("gmean", &gmeans);
        tables.push(table);
    }
    tables
}
