//! Plain-text rendering of the figure/table rows, plus CSV export.

use crate::ablations::{ArityRow, FuzzyRow, TopologyRow};
use crate::figures::{Fig3Row, Fig4Row, Fig5Row, Fig6Row, Fig7Row};
use crate::mb_exp::{MaskRow, MbRow, ParetoRow};
use crate::table1::Table1Row;
use std::fmt::Write as _;

fn header(title: &str) -> String {
    let bar = "=".repeat(title.len());
    format!("{title}\n{bar}\n")
}

pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut s = header("Figure 3 — analytical: instances per successful phase (h=5, 32 procs)");
    let _ = writeln!(s, "{:>8} {:>8} {:>12}", "c", "f", "instances");
    for r in rows {
        let _ = writeln!(s, "{:>8.3} {:>8.3} {:>12.5}", r.c, r.f, r.instances);
    }
    s
}

pub fn csv_fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::from("c,f,instances\n");
    for r in rows {
        let _ = writeln!(s, "{},{},{}", r.c, r.f, r.instances);
    }
    s
}

pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut s = header("Figure 4 — analytical: overhead of fault tolerance (h=5, 32 procs)");
    let _ = writeln!(
        s,
        "{:>8} {:>8} {:>12} {:>12} {:>10}",
        "c", "f", "tolerant", "intolerant", "overhead%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>8.3} {:>8.3} {:>12.5} {:>12.5} {:>9.2}%",
            r.c,
            r.f,
            r.tolerant_time,
            r.intolerant_time,
            r.overhead * 100.0
        );
    }
    s
}

pub fn csv_fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::from("c,f,tolerant_time,intolerant_time,overhead\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            r.c, r.f, r.tolerant_time, r.intolerant_time, r.overhead
        );
    }
    s
}

pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut s = header("Figure 5 — simulated: instances per successful phase (h=5, 32 procs)");
    let _ = writeln!(
        s,
        "{:>8} {:>8} {:>12} {:>12} {:>8} {:>7}",
        "c", "f", "simulated", "analytic", "phases", "viol"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>8.3} {:>8.3} {:>12.5} {:>12.5} {:>8} {:>7}",
            r.c, r.f, r.instances, r.analytic, r.phases, r.violations
        );
    }
    s
}

pub fn csv_fig5(rows: &[Fig5Row]) -> String {
    let mut s = String::from("c,f,instances,analytic,phases,violations\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{}",
            r.c, r.f, r.instances, r.analytic, r.phases, r.violations
        );
    }
    s
}

pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut s = header("Figure 6 — simulated: overhead of fault tolerance (h=5, 32 procs)");
    let _ = writeln!(
        s,
        "{:>8} {:>8} {:>11} {:>11} {:>10} {:>12}",
        "c", "f", "tolerant", "intoler.", "overhead%", "analytic%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>8.3} {:>8.3} {:>11.5} {:>11.5} {:>9.2}% {:>11.2}%",
            r.c,
            r.f,
            r.tolerant_time,
            r.intolerant_time,
            r.overhead * 100.0,
            r.analytic_overhead * 100.0
        );
    }
    s
}

pub fn csv_fig6(rows: &[Fig6Row]) -> String {
    let mut s = String::from("c,f,tolerant_time,intolerant_time,overhead,analytic_overhead\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{}",
            r.c, r.f, r.tolerant_time, r.intolerant_time, r.overhead, r.analytic_overhead
        );
    }
    s
}

pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut s = header("Figure 7 — simulated: recovery from undetectable faults");
    let _ = writeln!(
        s,
        "{:>4} {:>6} {:>8} {:>14} {:>13} {:>10}",
        "h", "procs", "c", "recovery(mean)", "recovery(max)", "recovered"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>4} {:>6} {:>8.3} {:>14.4} {:>13.4} {:>9.0}%",
            r.h,
            r.n,
            r.c,
            r.recovery_mean,
            r.recovery_max,
            r.recovered_frac * 100.0
        );
    }
    s
}

pub fn csv_fig7(rows: &[Fig7Row]) -> String {
    let mut s = String::from("h,n,c,recovery_mean,recovery_max,recovered_frac\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{}",
            r.h, r.n, r.c, r.recovery_mean, r.recovery_max, r.recovered_frac
        );
    }
    s
}

pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = header("Table 1 — fault classes and their tolerances, behaviourally exercised");
    let _ = writeln!(
        s,
        "{:<14} {:<15} {:<18} {:<18} evidence",
        "fault class", "correctability", "prescribed", "observed"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<14} {:<15} {:<18} {:<18} {}",
            format!("{:?}", r.kind),
            format!("{:?}", r.correctability),
            format!("{:?}", r.prescribed),
            format!("{:?}", r.observed),
            r.evidence
        );
    }
    s
}

pub fn render_mb(rows: &[MbRow]) -> String {
    let mut s = header("Program MB — simulated network sweep (phase time = 1)");
    let _ = writeln!(
        s,
        "{:>6} {:>7} {:>6} {:>6} {:>7} {:>10} {:>5} {:>8} {:>7} {:>11}",
        "loss", "c", "r", "f", "phases", "instances", "viol", "sent", "lost", "phase_time"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>6.2} {:>7.3} {:>6.3} {:>6.2} {:>7} {:>10.4} {:>5} {:>8} {:>7} {:>11.4}",
            r.loss,
            r.c,
            r.r,
            r.f,
            r.phases,
            r.instances,
            r.violations,
            r.sent,
            r.lost,
            r.phase_time
        );
    }
    s
}

pub fn csv_mb(rows: &[MbRow]) -> String {
    let mut s = String::from("loss,c,r,f,phases,instances,violations,sent,lost,phase_time\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{},{},{}",
            r.loss,
            r.c,
            r.r,
            r.f,
            r.phases,
            r.instances,
            r.violations,
            r.sent,
            r.lost,
            r.phase_time
        );
    }
    s
}

pub fn render_mb_pareto(rows: &[ParetoRow]) -> String {
    let mut s = header("Gossip simulators, 16 processes — messages per phase against phase time");
    let _ = writeln!(
        s,
        "{:<17} {:>6} {:>7} {:>5} {:>10} {:>11}",
        "backend", "loss", "phases", "viol", "msgs/phase", "phase_time"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<17} {:>6.2} {:>7} {:>5} {:>10.1} {:>11.3}",
            r.backend, r.loss, r.phases, r.violations, r.msgs_per_phase, r.phase_time
        );
    }
    s
}

pub fn csv_mb_pareto(rows: &[ParetoRow]) -> String {
    let mut s = String::from("backend,loss,phases,violations,msgs_per_phase,phase_time\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{}",
            r.backend, r.loss, r.phases, r.violations, r.msgs_per_phase, r.phase_time
        );
    }
    s
}

pub fn render_mb_masking(rows: &[MaskRow]) -> String {
    let mut s = header("Program MB — §5 masking claim, measured per fault class");
    let _ = writeln!(
        s,
        "{:<15} {:>7} {:>10} {:>5} {:>7} {:>8} {:>7}",
        "fault class", "phases", "instances", "viol", "reexec", "sent", "target"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<15} {:>7} {:>10.4} {:>5} {:>7} {:>8} {:>7}",
            r.class,
            r.phases,
            r.instances,
            r.violations,
            r.reexecutions,
            r.sent,
            if r.reached_target { "yes" } else { "NO" }
        );
    }
    s
}

pub fn render_topologies(rows: &[TopologyRow], c: f64) -> String {
    let mut s = header(&format!(
        "Ablation — §4 refinements compared (fault-free, c = {c})"
    ));
    let _ = writeln!(
        s,
        "{:<22} {:>6} {:>6} {:>12} {:>6}",
        "topology", "procs", "hops", "phase time", "viol"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<22} {:>6} {:>6} {:>12.5} {:>6}",
            r.name, r.processes, r.positions_hops, r.phase_time, r.violations
        );
    }
    s
}

pub fn render_arity(rows: &[ArityRow], c: f64) -> String {
    let mut s = header(&format!("Ablation — tree arity sweep (32 procs, c = {c})"));
    let _ = writeln!(s, "{:>6} {:>7} {:>12}", "arity", "height", "phase time");
    for r in rows {
        let _ = writeln!(s, "{:>6} {:>7} {:>12.5}", r.arity, r.height, r.phase_time);
    }
    s
}

pub fn render_fuzzy(rows: &[FuzzyRow], c: f64) -> String {
    let mut s = header(&format!(
        "Ablation — §8 fuzzy barriers (32 procs, c = {c}, total work = 1)"
    ));
    let _ = writeln!(
        s,
        "{:>14} {:>12} {:>12} {:>9}",
        "post fraction", "phase time", "strict", "saving%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>14.2} {:>12.5} {:>12.5} {:>8.2}%",
            r.post_fraction,
            r.phase_time,
            r.strict_time,
            (1.0 - r.phase_time / r.strict_time) * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn renders_are_nonempty_and_well_formed() {
        let f3 = figures::fig3(true);
        let text = render_fig3(&f3);
        assert!(text.contains("Figure 3"));
        assert_eq!(text.lines().count(), 3 + f3.len());
        let csv = csv_fig3(&f3);
        assert_eq!(csv.lines().count(), 1 + f3.len());
        assert!(csv.starts_with("c,f,instances"));

        let f4 = figures::fig4(true);
        assert!(render_fig4(&f4).contains("overhead"));
        assert_eq!(csv_fig4(&f4).lines().count(), 1 + f4.len());
    }
}
