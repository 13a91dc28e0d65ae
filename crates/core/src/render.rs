//! Text and image rendering of oscillograms, spectrogram columns and
//! traces for the figure regeneration binaries (Figures 2, 3 and 6 of
//! the paper).

/// Downsamples a signal to `width` columns of `(min, max)` envelope
/// pairs — the standard oscillogram drawing primitive.
pub fn envelope_columns(samples: &[f64], width: usize) -> Vec<(f64, f64)> {
    if samples.is_empty() || width == 0 {
        return Vec::new();
    }
    let chunk = samples.len().div_ceil(width);
    samples
        .chunks(chunk)
        .map(|c| {
            let mut lo = f64::MAX;
            let mut hi = f64::MIN;
            for &x in c {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            (lo, hi)
        })
        .collect()
}

/// Renders an ASCII oscillogram: `width` columns by `height` rows, zero
/// line in the middle, like the top panel of the paper's Figure 2.
pub fn ascii_oscillogram(samples: &[f64], width: usize, height: usize) -> String {
    let cols = envelope_columns(samples, width);
    if cols.is_empty() || height == 0 {
        return String::new();
    }
    let peak = cols
        .iter()
        .flat_map(|&(lo, hi)| [lo.abs(), hi.abs()])
        .fold(1e-12f64, f64::max);
    let mut out = String::with_capacity((width + 1) * height);
    for row in 0..height {
        // Row `row` covers the normalized amplitude band [bottom, top];
        // row 0 is the top of the plot (+1), the last row the bottom (-1).
        let top = 1.0 - 2.0 * row as f64 / height as f64;
        let bottom = 1.0 - 2.0 * (row + 1) as f64 / height as f64;
        for &(lo, hi) in &cols {
            let lo_n = lo / peak;
            let hi_n = hi / peak;
            if hi_n >= bottom && lo_n <= top {
                out.push('#');
            } else if bottom <= 0.0 && top >= 0.0 {
                out.push('-'); // zero axis
            } else {
                out.push(' ');
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a 0/1 trigger trace as a one-line square wave (Figure 6 top)
/// with `width` columns: `▔` for 1, `▁` for 0 (ASCII fallback: `^`/`_`).
pub fn ascii_trigger(trigger: &[u8], width: usize) -> String {
    if trigger.is_empty() || width == 0 {
        return String::new();
    }
    let chunk = trigger.len().div_ceil(width);
    trigger
        .chunks(chunk)
        .map(|c| if c.iter().any(|&t| t > 0) { '^' } else { '_' })
        .collect()
}

/// Marks ensemble spans on a `width`-column ruler: `=` inside an
/// ensemble, `.` outside (Figure 6 bottom).
pub fn ascii_spans(total_len: usize, spans: &[(usize, usize)], width: usize) -> String {
    if total_len == 0 || width == 0 {
        return String::new();
    }
    let mut out = String::with_capacity(width);
    for col in 0..width {
        let lo = col * total_len / width;
        let hi = ((col + 1) * total_len / width).max(lo + 1);
        let inside = spans.iter().any(|&(s, e)| s < hi && e > lo);
        out.push(if inside { '=' } else { '.' });
    }
    out
}

/// Formats a seconds axis ruler for `width` columns over `seconds`
/// total, with a tick roughly every `tick_every` seconds.
pub fn seconds_ruler(seconds: f64, width: usize, tick_every: f64) -> String {
    let mut out = vec![b' '; width];
    let mut t = 0.0;
    while t <= seconds {
        let col = ((t / seconds) * (width.saturating_sub(1)) as f64) as usize;
        let label = format!("{t:.0}");
        // Shift left if the label would overflow the right edge.
        let start = col.min(width.saturating_sub(label.len()));
        for (i, b) in label.bytes().enumerate() {
            if start + i < width {
                out[start + i] = b;
            }
        }
        t += tick_every;
    }
    String::from_utf8(out).expect("ascii ruler")
}

/// Renders arbitrary column data (e.g. a PAA-reduced spectrogram) as
/// ASCII art; `rows` output rows, low frequency at the bottom.
pub fn render_ascii(columns: &[Vec<f64>], rows: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    if columns.is_empty() || rows == 0 {
        return String::new();
    }
    let bins = columns[0].len();
    if bins == 0 {
        return String::new();
    }
    let max = columns
        .iter()
        .flat_map(|c| c.iter())
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::with_capacity((columns.len() + 1) * rows);
    for row in (0..rows).rev() {
        let lo = row * bins / rows;
        let hi = (((row + 1) * bins) / rows).max(lo + 1).min(bins);
        for col in columns {
            let band_max = col[lo..hi].iter().copied().fold(0.0, f64::max);
            // Log compression over ~4 decades.
            let norm = if band_max <= 0.0 {
                0.0
            } else {
                ((band_max / max).log10() / 4.0 + 1.0).clamp(0.0, 1.0)
            };
            let idx = ((norm * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Serializes column data as a binary PGM (P5) grayscale image, low
/// frequencies at the bottom; suitable for viewing the paper's figures.
pub fn render_pgm(columns: &[Vec<f64>]) -> Vec<u8> {
    let width = columns.len();
    let height = columns.first().map_or(0, Vec::len);
    let mut out = format!("P5\n{width} {height}\n255\n").into_bytes();
    if width == 0 || height == 0 {
        return out;
    }
    let max = columns
        .iter()
        .flat_map(|c| c.iter())
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    for row in (0..height).rev() {
        for col in columns {
            let v = col.get(row).copied().unwrap_or(0.0);
            let norm = if v <= 0.0 {
                0.0
            } else {
                ((v / max).log10() / 4.0 + 1.0).clamp(0.0, 1.0)
            };
            out.push((norm * 255.0) as u8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_columns_cover_extremes() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin()).collect();
        let cols = envelope_columns(&samples, 10);
        assert_eq!(cols.len(), 10);
        for &(lo, hi) in &cols {
            assert!(lo <= hi);
        }
    }

    #[test]
    fn oscillogram_shape() {
        let samples: Vec<f64> = (0..1_000).map(|i| (i as f64 * 0.1).sin()).collect();
        let art = ascii_oscillogram(&samples, 40, 9);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 9);
        for l in &lines {
            assert_eq!(l.len(), 40);
        }
        // A full-scale sine covers the top and bottom rows somewhere.
        assert!(lines[0].contains('#'));
        assert!(lines[8].contains('#'));
    }

    #[test]
    fn oscillogram_empty() {
        assert_eq!(ascii_oscillogram(&[], 10, 5), "");
        assert_eq!(ascii_oscillogram(&[1.0], 10, 0), "");
    }

    #[test]
    fn trigger_trace_marks_high_regions() {
        let mut trig = vec![0u8; 100];
        for t in trig.iter_mut().skip(40).take(20) {
            *t = 1;
        }
        let line = ascii_trigger(&trig, 20);
        assert_eq!(line.len(), 20);
        assert_eq!(&line[..8], "________");
        assert!(line[8..12].contains('^'));
    }

    #[test]
    fn spans_marked() {
        let line = ascii_spans(100, &[(20, 40)], 10);
        assert_eq!(line, "..==......".to_string());
    }

    #[test]
    fn ruler_has_ticks() {
        let r = seconds_ruler(30.0, 60, 10.0);
        assert_eq!(r.len(), 60);
        assert!(r.contains('0'));
        assert!(r.contains("10"));
        assert!(r.contains("30"));
    }

    #[test]
    fn ascii_render_shape() {
        // Ten columns of 32 bins, a peak moving up one bin per column.
        let columns: Vec<Vec<f64>> = (0..10)
            .map(|t| {
                (0..32)
                    .map(|b| if b == 2 * t { 1.0 } else { 1e-3 })
                    .collect()
            })
            .collect();
        let art = render_ascii(&columns, 8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        for l in &lines {
            assert_eq!(l.len(), columns.len());
        }
    }

    #[test]
    fn ascii_render_empty_input() {
        assert_eq!(render_ascii(&[], 8), "");
        assert_eq!(render_ascii(&[vec![1.0; 4]], 0), "");
        assert_eq!(render_ascii(&[Vec::new()], 8), "");
    }

    #[test]
    fn pgm_header_and_size() {
        let columns = vec![vec![0.0, 1.0], vec![0.5, 0.25], vec![1.0, 0.0]];
        let pgm = render_pgm(&columns);
        let header = b"P5\n3 2\n255\n";
        assert_eq!(&pgm[..header.len()], header);
        assert_eq!(pgm.len(), header.len() + 6);
    }
}
