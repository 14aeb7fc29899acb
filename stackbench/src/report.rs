//! Statistics and output: every metric is printed by name with its unit
//! and the sample count behind it, then the one-line JSON result.

/// Nearest-rank percentile (`p` in (0, 1]) of unsorted samples; 0 if empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median of each group's samples, for the non-empty groups of
/// `(group, sample)` pairs whose group is below `groups`.
pub fn group_medians(pairs: impl Iterator<Item = (usize, f64)>, groups: usize) -> Vec<f64> {
    let mut by_group = vec![Vec::new(); groups];
    for (g, x) in pairs {
        by_group[g].push(x);
    }
    by_group
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect()
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// An ordered list of named metrics.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str, usize)>);

impl Metrics {
    /// Add a metric computed from `samples` samples.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push((name, value, unit, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
    }

    /// One human-readable line per metric.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit, samples) in &self.0 {
            println!("  {name:<28} {value:>14.4} {unit:<6} (n={samples})");
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit, _)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// Host and build provenance, as one JSON object.
pub fn provenance(workload: &str, seed: u64, n: usize, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"n\": {n}, \"trace\": {trace}, \
         \"kernel\": \"{}\", \"quant_kernel_i8\": \"{}\", \"quant_kernel_i16\": \"{}\", \
         \"host_has_fma\": {}, \"nproc\": {nproc}, \"git_revision\": \"{}\"}}",
        planar_geom::kernel_name(),
        planar_geom::quant_kernel_name(false),
        planar_geom::quant_kernel_name(true),
        planar_geom::host_has_fma(),
        git_revision()
    )
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
