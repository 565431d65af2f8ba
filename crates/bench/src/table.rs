//! Minimal fixed-width table rendering for the `tables` binary.

/// Renders a table: a header row (`header`'s columns separated by `|`)
/// followed by data rows, columns padded to their widest cell, separated by
/// two spaces.
pub fn render<R: AsRef<[String]>>(header: &str, rows: &[R]) -> String {
    let header: Vec<&str> = header.split('|').collect();
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.as_ref().iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.as_ref(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a ratio like the paper (`1.04`, `9.42`, `122`).
pub fn ratio(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Formats an optional paper reference value.
pub fn paper_ratio(x: Option<f64>) -> String {
    match x {
        Some(v) => ratio(v),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let s = render(
            "name|ratio",
            &[
                ["asis".into(), "0.96".into()],
                ["usertrack".into(), "1.00".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("asis"));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.0401), "1.04");
        assert_eq!(ratio(122.3), "122");
        assert_eq!(paper_ratio(None), "-");
    }
}
