//! A tiny parser for the Prometheus text exposition format — just enough
//! to round-trip what [`crate::export::metrics_to_prometheus`] emits, so
//! tests (and the `repro trace` smoke) can validate snapshots offline.

use std::collections::BTreeMap;

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed exposition: samples in file order plus `# TYPE` and `# HELP`
/// declarations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    pub samples: Vec<Sample>,
    pub types: BTreeMap<String, String>,
    pub helps: BTreeMap<String, String>,
}

impl Exposition {
    /// Look up a sample by metric name and exact (sorted) label set.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| s.value)
    }

    /// All samples for one metric name.
    pub fn samples_of(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }
}

/// Parse a Prometheus text exposition. Returns `Err(line_no, message)` on
/// the first malformed line (1-based). A sample belongs to the family of
/// the last `# TYPE` line; in a `histogram` family `F` only `F_bucket`,
/// `F_sum` and `F_count` samples are accepted, as a strict scraper demands.
pub fn parse(input: &str) -> Result<Exposition, (usize, String)> {
    let mut exp = Exposition::default();
    let mut histogram: Option<String> = None;
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it
                    .next()
                    .ok_or((lineno, "TYPE without metric name".to_owned()))?;
                let ty = it.next().ok_or((lineno, "TYPE without type".to_owned()))?;
                exp.types.insert(name.to_owned(), ty.to_owned());
                histogram = (ty == "histogram").then(|| name.to_owned());
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let decl = decl.trim_start();
                let name = decl
                    .split_whitespace()
                    .next()
                    .ok_or((lineno, "HELP without metric name".to_owned()))?;
                let text = decl[name.len()..].trim_start();
                exp.helps.insert(name.to_owned(), unescape_help(text));
            }
            continue; // other comments are ignored
        }
        let sample = parse_sample(line).map_err(|m| (lineno, m))?;
        if let Some(family) = &histogram {
            let suffix = sample.name.strip_prefix(family.as_str());
            if !matches!(suffix, Some("_bucket" | "_sum" | "_count")) {
                return Err((
                    lineno,
                    format!(
                        "sample {} in histogram family {family}: only _bucket, _sum and _count belong there",
                        sample.name
                    ),
                ));
            }
        }
        exp.samples.push(sample);
    }
    Ok(exp)
}

/// Undo [`crate::export::escape_help`]: `\\` → `\`, `\n` → line feed. Any
/// other backslash sequence is left verbatim (the format reserves none).
fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.peek() {
                Some('\\') => {
                    chars.next();
                    out.push('\\');
                }
                Some('n') => {
                    chars.next();
                    out.push('\n');
                }
                _ => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_str) = match line.find('{') {
        Some(_) => {
            let close = line.rfind('}').ok_or("missing '}'")?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let sp = line
                .find(char::is_whitespace)
                .ok_or("missing value after metric name")?;
            (&line[..sp], line[sp..].trim())
        }
    };
    let value = parse_value(value_str)?;
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.to_owned(), Vec::new()),
        Some(open) => {
            let name = name_and_labels[..open].to_owned();
            let body = &name_and_labels[open + 1..name_and_labels.len() - 1];
            (name, parse_labels(body)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels = labels;
    labels.sort();
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse::<f64>().map_err(|_| format!("bad value {s:?}")),
    }
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_owned();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err("label value not quoted".to_owned());
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err("bad escape in label value".to_owned()),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = consumed.ok_or("unterminated label value")?;
        labels.push((key, value));
        rest = rest[end..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err("expected ',' between labels".to_owned());
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::metrics_to_prometheus;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn parses_plain_and_labeled_samples() {
        let exp = parse(concat!(
            "# HELP up Whether the scrape target is up.\n",
            "# TYPE up gauge\n",
            "up 1\n",
            "# a comment\n",
            "req_total{code=\"200\",method=\"get\"} 42\n",
            "lat_bucket{le=\"+Inf\"} 7\n",
        ))
        .unwrap();
        assert_eq!(exp.types.get("up").map(String::as_str), Some("gauge"));
        assert_eq!(
            exp.helps.get("up").map(String::as_str),
            Some("Whether the scrape target is up.")
        );
        assert_eq!(exp.value("up", &[]), Some(1.0));
        assert_eq!(
            exp.value("req_total", &[("method", "get"), ("code", "200")]),
            Some(42.0)
        );
        assert_eq!(exp.value("lat_bucket", &[("le", "+Inf")]), Some(7.0));
    }

    #[test]
    fn handles_escaped_label_values() {
        let exp = parse("m{k=\"a\\\"b\\\\c\\nd\"} 3\n").unwrap();
        assert_eq!(exp.samples[0].labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn unescapes_help_text() {
        let exp = parse("# HELP m Multi\\nline \\\\ docs.\n# TYPE m gauge\nm 1\n").unwrap();
        assert_eq!(
            exp.helps.get("m").map(String::as_str),
            Some("Multi\nline \\ docs.")
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("no_value\n").is_err());
        assert!(parse("m{k=unquoted} 1\n").is_err());
        assert!(parse("m{k=\"open} 1\n").is_err());
        assert!(parse("bad name 1\n").is_err());
    }

    #[test]
    fn refuses_foreign_samples_in_a_histogram_family() {
        let family = concat!(
            "# TYPE lat histogram\n",
            "lat_bucket{le=\"+Inf\"} 2\n",
            "lat_sum 0.5\n",
            "lat_count 2\n",
        );
        assert!(parse(family).is_ok());
        for (extra, name) in [
            ("lat{quantile=\"0.5\"} 0.2\n", "lat"),
            ("lat_max 0.3\n", "lat_max"),
            ("other 1\n", "other"),
        ] {
            let (line, message) = parse(&format!("{family}{extra}")).unwrap_err();
            assert_eq!(line, 5, "{message}");
            assert!(
                message.contains(&format!("sample {name} in histogram family lat")),
                "{message}"
            );
        }
        // A new TYPE line closes the histogram family.
        assert!(parse(&format!("{family}# TYPE up gauge\nup 1\n")).is_ok());
    }

    #[test]
    fn round_trips_registry_export() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("actions_total", &[("action", "tok")], 17);
        reg.set_gauge("in_flight", &[], 2.0);
        for v in [0.001, 0.002, 0.004, 0.008] {
            reg.observe("latency", &[("topo", "ring")], v);
        }
        let text = metrics_to_prometheus(&reg);
        let exp = parse(&text).unwrap();
        assert_eq!(exp.value("actions_total", &[("action", "tok")]), Some(17.0));
        assert_eq!(exp.value("in_flight", &[]), Some(2.0));
        assert_eq!(exp.value("latency_count", &[("topo", "ring")]), Some(4.0));
        assert_eq!(
            exp.value("latency_sum", &[("topo", "ring")]),
            Some(0.001 + 0.002 + 0.004 + 0.008)
        );
        assert_eq!(
            exp.value("latency_bucket", &[("topo", "ring"), ("le", "+Inf")]),
            Some(4.0)
        );
        assert_eq!(
            exp.types.get("latency").map(String::as_str),
            Some("histogram")
        );
        // Every emitted metric family carries a HELP line through the
        // round trip, and canonical names keep their canonical text.
        for name in ["actions_total", "in_flight", "latency"] {
            assert!(
                exp.helps.contains_key(name),
                "missing HELP for {name}: {:?}",
                exp.helps
            );
        }
        let mut reg2 = MetricsRegistry::new();
        reg2.observe("detection_latency", &[("topo", "ring")], 0.5);
        let exp2 = parse(&metrics_to_prometheus(&reg2)).unwrap();
        assert_eq!(
            exp2.helps.get("detection_latency").map(String::as_str),
            Some(crate::names::help_text("detection_latency"))
        );
    }
}
