//! Textual layout specifications, for command-line tools and configs.
//!
//! Grammar (shape `p`, `q` supplied separately):
//!
//! ```text
//! spec     := "1d:" dir ":" scheme ":" enc ":n=" INT
//!           | "2d:" scheme ":" enc ":half=" INT
//!           | "2d:" scheme ":" enc ":" scheme ":" enc ":nr=" INT ":nc=" INT
//!           | "banded:nc=" INT
//! dir      := "rows" | "cols"
//! scheme   := "cyclic" | "consecutive"
//! enc      := "binary" | "gray"
//! ```
//!
//! Examples: `1d:rows:consecutive:binary:n=3`,
//! `2d:cyclic:gray:half=2`, `2d:consecutive:binary:cyclic:gray:nr=1:nc=2`,
//! `banded:nc=2`.

use crate::layout::Layout;
use crate::scheme::{Assignment, Direction, Encoding};

/// Parses a layout spec string for a `2^p × 2^q` matrix.
///
/// Errors describe the offending token; a count the shape cannot hold
/// (`p + q` beyond [`cubeaddr::MAX_DIMS`], more processor dimensions
/// than index bits, a band wider than the matrix) is an error naming the
/// field and its bound, never a panic.
pub fn parse_layout(spec: &str, p: u32, q: u32) -> Result<Layout, String> {
    let bits = u64::from(p) + u64::from(q);
    if bits > u64::from(cubeaddr::MAX_DIMS) {
        return Err(format!(
            "matrix address of p + q = {bits} bits exceeds MAX_DIMS = {}",
            cubeaddr::MAX_DIMS
        ));
    }
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["1d", dir, scheme, enc, n] => {
            let dir = parse_dir(dir)?;
            let scheme = parse_scheme(scheme)?;
            let enc = parse_enc(enc)?;
            let n = parse_kv(n, "n")?;
            match dir {
                Direction::Rows => within(n, "n", p, "row")?,
                Direction::Cols => within(n, "n", q, "column")?,
            }
            Ok(Layout::one_dim(p, q, dir, n, scheme, enc))
        }
        ["2d", scheme, enc, half] => {
            let scheme = parse_scheme(scheme)?;
            let enc = parse_enc(enc)?;
            let half = parse_kv(half, "half")?;
            within(half, "half", p, "row")?;
            within(half, "half", q, "column")?;
            Ok(Layout::square(p, q, half, scheme, enc))
        }
        ["2d", rs, re, cs, ce, nr, nc] => {
            let rs = parse_scheme(rs)?;
            let re = parse_enc(re)?;
            let cs = parse_scheme(cs)?;
            let ce = parse_enc(ce)?;
            let nr = parse_kv(nr, "nr")?;
            within(nr, "nr", p, "row")?;
            let nc = parse_kv(nc, "nc")?;
            within(nc, "nc", q, "column")?;
            Ok(Layout::two_dim(p, q, (nr, rs, re), (nc, cs, ce)))
        }
        ["banded", nc] => {
            if p < q {
                return Err(format!("banded layout needs p ≥ q, got p = {p} < q = {q}"));
            }
            let nc = parse_kv(nc, "nc")?;
            within(nc, "nc", q, "column")?;
            Ok(Layout::banded(p, q, nc))
        }
        _ => Err(format!("unrecognized layout spec '{spec}'; expected 1d:…, 2d:…, or banded:…")),
    }
}

fn parse_dir(s: &str) -> Result<Direction, String> {
    match s {
        "rows" => Ok(Direction::Rows),
        "cols" => Ok(Direction::Cols),
        other => Err(format!("unknown direction '{other}' (rows|cols)")),
    }
}

fn parse_scheme(s: &str) -> Result<Assignment, String> {
    match s {
        "cyclic" => Ok(Assignment::Cyclic),
        "consecutive" => Ok(Assignment::Consecutive),
        other => Err(format!("unknown scheme '{other}' (cyclic|consecutive)")),
    }
}

fn parse_enc(s: &str) -> Result<Encoding, String> {
    match s {
        "binary" => Ok(Encoding::Binary),
        "gray" => Ok(Encoding::Gray),
        other => Err(format!("unknown encoding '{other}' (binary|gray)")),
    }
}

fn parse_kv(s: &str, key: &str) -> Result<u32, String> {
    let Some(value) = s.strip_prefix(key).and_then(|r| r.strip_prefix('=')) else {
        return Err(format!("expected '{key}=<int>', got '{s}'"));
    };
    value.parse().map_err(|e| format!("bad integer in '{s}': {e}"))
}

/// Checks that the processor-dimension count `key=value` fits the
/// `bits` bits of the row or column index (`index`) it is taken from.
fn within(value: u32, key: &str, bits: u32, index: &str) -> Result<(), String> {
    if value > bits {
        return Err(format!("{key}={value} exceeds the {bits} {index} index bits"));
    }
    Ok(())
}

/// Renders a layout back into spec-string form when it matches one of
/// the grammar's shapes (`None` for layouts the grammar cannot express,
/// e.g. hand-built split fields other than `banded`).
pub fn render_spec(layout: &Layout) -> Option<String> {
    let (p, q) = (layout.p(), layout.q());
    let field_form = |dims: cubeaddr::DimSet, width: u32| -> Option<(&'static str, u32)> {
        let n = dims.len();
        if n == 0 {
            return Some(("none", 0));
        }
        if dims == cubeaddr::DimSet::range(0, n) {
            Some(("cyclic", n))
        } else if dims == cubeaddr::DimSet::range(width - n, width) {
            Some(("consecutive", n))
        } else {
            None
        }
    };
    let enc_of = |field: &crate::field::SubField| -> Option<Encoding> {
        match field.groups() {
            [] => Some(Encoding::Binary),
            [g] => Some(g.encoding),
            _ => None,
        }
    };
    let enc_name = |e: Encoding| match e {
        Encoding::Binary => "binary",
        Encoding::Gray => "gray",
    };

    // Banded?
    if layout.n_c() > 0
        && p >= q
        && layout.row_field().dims() == cubeaddr::DimSet::range(q - layout.n_c(), q)
        && layout.col_field().dims() == cubeaddr::DimSet::range(q - layout.n_c(), q)
        && layout.n_r() == layout.n_c()
        && enc_of(layout.row_field()) == Some(Encoding::Binary)
        && enc_of(layout.col_field()) == Some(Encoding::Binary)
        && q != p
    // a square matrix with this shape is plain 2D below
    {
        return Some(format!("banded:nc={}", layout.n_c()));
    }

    let (rs, nr) = field_form(layout.row_field().dims(), p)?;
    let (cs, nc) = field_form(layout.col_field().dims(), q)?;
    let re = enc_of(layout.row_field())?;
    let ce = enc_of(layout.col_field())?;
    match (nr, nc) {
        (0, 0) => None,
        (n, 0) => Some(format!("1d:rows:{rs}:{}:n={n}", enc_name(re))),
        (0, n) => Some(format!("1d:cols:{cs}:{}:n={n}", enc_name(ce))),
        (a, b) if a == b && rs == cs && re == ce => {
            Some(format!("2d:{rs}:{}:half={a}", enc_name(re)))
        }
        (a, b) => Some(format!("2d:{rs}:{}:{cs}:{}:nr={a}:nc={b}", enc_name(re), enc_name(ce))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dim_specs() {
        let l = parse_layout("1d:rows:consecutive:binary:n=3", 4, 4).unwrap();
        assert_eq!(l.n(), 3);
        assert_eq!(l.n_r(), 3);
        let l = parse_layout("1d:cols:cyclic:gray:n=2", 3, 5).unwrap();
        assert_eq!(l.n_c(), 2);
    }

    #[test]
    fn two_dim_specs() {
        let l = parse_layout("2d:cyclic:binary:half=2", 4, 4).unwrap();
        assert_eq!((l.n_r(), l.n_c()), (2, 2));
        let l = parse_layout("2d:consecutive:binary:cyclic:gray:nr=1:nc=2", 4, 4).unwrap();
        assert_eq!((l.n_r(), l.n_c()), (1, 2));
    }

    #[test]
    fn banded_spec() {
        let l = parse_layout("banded:nc=2", 5, 3).unwrap();
        assert_eq!(l.n(), 4);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_layout("3d:nope", 2, 2).unwrap_err().contains("unrecognized"));
        assert!(parse_layout("1d:diag:cyclic:binary:n=1", 2, 2).unwrap_err().contains("direction"));
        assert!(parse_layout("1d:rows:cyclic:binary:m=1", 2, 2).unwrap_err().contains("n=<int>"));
        assert!(parse_layout("2d:cyclic:hex:half=1", 2, 2).unwrap_err().contains("encoding"));
    }

    #[test]
    fn address_wider_than_max_dims_is_an_error() {
        let err = parse_layout("1d:rows:cyclic:binary:n=1", 64, 2).unwrap_err();
        assert!(err.contains("p + q = 66 bits exceeds MAX_DIMS = 63"), "{err}");
        assert!(parse_layout("1d:rows:cyclic:binary:n=1", u32::MAX, u32::MAX).is_err());
    }

    #[test]
    fn one_dim_count_beyond_the_index_is_an_error() {
        let err = parse_layout("1d:rows:cyclic:binary:n=9", 4, 4).unwrap_err();
        assert_eq!(err, "n=9 exceeds the 4 row index bits");
        let err = parse_layout("1d:cols:consecutive:gray:n=4", 5, 3).unwrap_err();
        assert_eq!(err, "n=4 exceeds the 3 column index bits");
    }

    #[test]
    fn square_half_beyond_the_index_is_an_error() {
        let err = parse_layout("2d:cyclic:binary:half=5", 4, 4).unwrap_err();
        assert_eq!(err, "half=5 exceeds the 4 row index bits");
        let err = parse_layout("2d:cyclic:binary:half=3", 4, 2).unwrap_err();
        assert_eq!(err, "half=3 exceeds the 2 column index bits");
    }

    #[test]
    fn two_dim_counts_beyond_the_index_are_errors() {
        let err = parse_layout("2d:cyclic:binary:cyclic:binary:nr=5:nc=0", 4, 4).unwrap_err();
        assert_eq!(err, "nr=5 exceeds the 4 row index bits");
        let err = parse_layout("2d:cyclic:binary:cyclic:binary:nr=0:nc=5", 4, 4).unwrap_err();
        assert_eq!(err, "nc=5 exceeds the 4 column index bits");
    }

    #[test]
    fn banded_band_beyond_the_matrix_is_an_error() {
        let err = parse_layout("banded:nc=7", 4, 4).unwrap_err();
        assert_eq!(err, "nc=7 exceeds the 4 column index bits");
        let err = parse_layout("banded:nc=1", 3, 5).unwrap_err();
        assert_eq!(err, "banded layout needs p ≥ q, got p = 3 < q = 5");
    }

    #[test]
    fn render_roundtrips() {
        for spec in [
            "1d:rows:consecutive:binary:n=3",
            "1d:cols:cyclic:gray:n=2",
            "2d:cyclic:binary:half=2",
            "2d:consecutive:binary:cyclic:gray:nr=1:nc=2",
        ] {
            let l = parse_layout(spec, 4, 4).unwrap();
            assert_eq!(render_spec(&l).as_deref(), Some(spec));
        }
        let banded = parse_layout("banded:nc=2", 5, 3).unwrap();
        assert_eq!(render_spec(&banded).as_deref(), Some("banded:nc=2"));
    }

    #[test]
    fn render_rejects_unrepresentable() {
        let l = Layout::new(
            4,
            4,
            crate::field::SubField::from_dims(
                cubeaddr::DimSet::from_dims([1, 3]),
                Encoding::Binary,
            ),
            crate::field::SubField::empty(),
        );
        assert_eq!(render_spec(&l), None);
    }

    #[test]
    fn roundtrip_usable_for_transposition() {
        let before = parse_layout("2d:consecutive:binary:half=1", 3, 3).unwrap();
        let after = before.swapped_shape();
        assert_eq!(
            crate::pattern::TransposeSpec::with_after(before, after).classify(),
            crate::pattern::CommPattern::PairwiseExchange
        );
    }
}
