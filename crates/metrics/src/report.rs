//! Plain-text rendering of experiment results.
//!
//! `repro` and the sweep binaries print the same rows and series the paper
//! reports; these helpers keep that output aligned and uniform.

use crate::cdf::Cdf;

/// Renders a fixed-width table: a header row followed by data rows.
/// Column widths adapt to the widest cell.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a CDF as a two-column `value  cumulative-%` listing with at most
/// `max_points` rows (the paper's CDF plots, in text form).
pub fn render_cdf(label: &str, cdf: &mut Cdf, max_points: usize) -> String {
    let mut out = format!("# CDF: {label} ({} samples)\n", cdf.len());
    let series = cdf.series();
    let step = (series.len() / max_points.max(1)).max(1);
    let rows: Vec<Vec<String>> = series
        .iter()
        .step_by(step)
        .chain(
            series
                .last()
                .into_iter()
                .filter(|_| series.len() > 1 && step > 1),
        )
        .map(|(v, p)| vec![format!("{v:.3}"), format!("{p:.1}")])
        .collect();
    out.push_str(&render_table(&["value", "% <= value"], &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["long-name".to_string(), "22".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("long-name"));
        // The value column starts at the same offset on every row.
        let col = lines[3].find("22").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    fn cdf_rendering_has_header_and_rows() {
        let mut c = Cdf::from_samples((0..100).map(|i| i as f64));
        let r = render_cdf("latency", &mut c, 10);
        assert!(r.contains("# CDF: latency (100 samples)"));
        assert!(r.lines().count() >= 10);
    }
}
