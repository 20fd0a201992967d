//! Plain-text reporting: aligned tables, CSV and ASCII trace plots.

use crate::runner::RunOutcome;
use fedlake_core::AnswerTrace;
use std::time::Duration;

/// Formats a duration in milliseconds with three decimals.
pub(crate) fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

/// Renders rows as an aligned text table.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let parts: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = *w))
            .collect();
        parts.join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Serializes outcomes as CSV.
pub(crate) fn outcomes_csv(outcomes: &[RunOutcome]) -> String {
    let mut out = String::from(
        "query,plan,network,time_ms,first_answer_ms,answers,rows_transferred,messages,sql_queries\n",
    );
    for o in outcomes {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            o.query,
            o.plan,
            o.network,
            ms(o.time),
            o.first_answer.map(ms).unwrap_or_default(),
            o.answers,
            o.rows_transferred,
            o.messages,
            o.sql_queries
        ));
    }
    out
}

/// ASCII plot of one or more answer traces on a shared time axis —
/// the text rendition of the paper's Figure 2 panels.
pub(crate) fn trace_plot(traces: &[(&str, &AnswerTrace)], width: usize, height: usize) -> String {
    let t_max = traces
        .iter()
        .map(|(_, t)| t.total_time())
        .max()
        .unwrap_or(Duration::ZERO)
        .as_secs_f64()
        .max(1e-9);
    let a_max = traces.iter().map(|(_, t)| t.count()).max().unwrap_or(0).max(1);
    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', '+', 'o', 'x', '#', '@'];
    for (i, (_, trace)) in traces.iter().enumerate() {
        let mark = marks[i % marks.len()];
        for &(t, c) in &trace.downsample(width * 2) {
            let x = ((t.as_secs_f64() / t_max) * (width - 1) as f64).round() as usize;
            let y = ((c as f64 / a_max as f64) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("answers (max {a_max})\n"));
    for row in grid {
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "0{:>w$}\n",
        format!("{:.1} ms", t_max * 1000.0),
        w = width
    ));
    for (i, (name, _)) in traces.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", marks[i % marks.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["query", "time"],
            &[
                vec!["Q1".into(), "1.5".into()],
                vec!["Q200".into(), "10.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("query"));
        assert!(lines[2].ends_with("1.5"));
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.500");
    }

    #[test]
    fn trace_plot_renders() {
        let mut a = AnswerTrace::new();
        let mut b = AnswerTrace::new();
        for i in 1..=10u64 {
            a.record(Duration::from_millis(i));
            b.record(Duration::from_millis(i * 3));
        }
        let plot = trace_plot(&[("fast", &a), ("slow", &b)], 40, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('+'));
        assert!(plot.contains("fast"));
        assert!(plot.contains("30.0 ms"));
    }

    #[test]
    fn empty_traces_do_not_panic() {
        let t = AnswerTrace::new();
        let plot = trace_plot(&[("empty", &t)], 20, 5);
        assert!(plot.contains("max 1"));
    }
}
