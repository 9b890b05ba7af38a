//! EXPERIMENTS.md quotes Figure 11 from `results/fig11_apps.txt`; the
//! snapshot suite pins that file to the model, this pins the prose to
//! the file, so a re-blessed report cannot leave the table behind.
//!
//! What counts as quoted: in the "Figure 11" section, every `<number>×`
//! of the table's *Measured* column and, in prose, every one outside
//! parentheses (the paper's own figures sit in the third column or in
//! parentheses). Each must appear in the report as `<number>x`.

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The `<number>` of every `<number>×` in `text`; a slash-separated run
/// (`a / b / c×`) quotes all of its numbers.
fn quoted(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut run: Vec<String> = Vec::new();
    for token in text.split_whitespace() {
        let number = token.trim_end_matches(|c: char| !c.is_ascii_digit() && c != '×');
        let (digits, times) = match number.strip_suffix('×') {
            Some(digits) => (digits, true),
            None => (number, false),
        };
        let numeric = digits.contains('.')
            && digits.chars().all(|c| c.is_ascii_digit() || c == '.')
            && digits.starts_with(|c: char| c.is_ascii_digit());
        match (numeric, times) {
            (true, true) => {
                out.append(&mut run);
                out.push(digits.to_owned());
            }
            (true, false) => run.push(digits.to_owned()),
            _ if token == "/" => {}
            _ => run.clear(),
        }
    }
    out
}

#[test]
fn every_figure_11_number_in_experiments_md_is_in_the_pinned_report() {
    let doc = std::fs::read_to_string(format!("{ROOT}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let report =
        std::fs::read_to_string(format!("{ROOT}/results/fig11_apps.txt")).expect("fig11_apps.txt");
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Figure 11"))
        .expect("a Figure 11 section");
    let mut checked = 0;
    let mut depth = 0usize;
    for line in section.lines() {
        let measured: String = if line.starts_with('|') {
            line.split('|').nth(2).unwrap_or("").to_owned()
        } else {
            // Prose: drop what parentheses enclose, across lines.
            line.chars()
                .filter(|&c| {
                    depth += usize::from(c == '(');
                    let keep = depth == 0;
                    depth -= usize::from(c == ')' && depth > 0);
                    keep
                })
                .collect()
        };
        for number in quoted(&measured) {
            assert!(
                report.contains(&format!("{number}x")),
                "EXPERIMENTS.md quotes {number}× for Figure 11; results/fig11_apps.txt has no {number}x"
            );
            checked += 1;
        }
    }
    // 8 apps + GMEAN at three sizes, the peak, eight CUDA-core figures.
    assert_eq!(checked, 27 + 1 + 8, "the section's quoted numbers moved");
}
