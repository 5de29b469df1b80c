//! Rereference Matrix persistence.
//!
//! "The Rereference Matrix is algorithm agnostic and needs to be created
//! only once for a graph … the preprocessing cost of P-OPT can be easily
//! amortized by reusing the Rereference Matrix across multiple applications
//! running on the same graph" (paper Section VII-D). This module gives the
//! amortization a concrete form: build once with `graphgen`, persist, and
//! load for any number of simulation runs.

use crate::cast;
use crate::{Encoding, Quantization, RerefMatrix};
use std::io::{BufReader, BufWriter, Read, Write};

const MAGIC: &[u8; 8] = b"POPTRRM1";

/// Entries reserved before any is read (2 MiB of `u16`s).
const MAX_PREALLOC_ENTRIES: usize = 1 << 20;

/// Error for matrix (de)serialization.
#[derive(Debug)]
pub enum MatrixFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Bad magic, unknown encoding tag, or truncated payload.
    Format(String),
}

impl std::fmt::Display for MatrixFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixFileError::Io(e) => write!(f, "i/o error: {e}"),
            MatrixFileError::Format(m) => write!(f, "malformed matrix file: {m}"),
        }
    }
}

impl std::error::Error for MatrixFileError {}

impl From<std::io::Error> for MatrixFileError {
    fn from(e: std::io::Error) -> Self {
        MatrixFileError::Io(e)
    }
}

fn encoding_tag(e: Encoding) -> u8 {
    match e {
        Encoding::InterOnly => 0,
        Encoding::InterIntra => 1,
        Encoding::SingleEpoch => 2,
    }
}

fn encoding_from_tag(tag: u8) -> Result<Encoding, MatrixFileError> {
    match tag {
        0 => Ok(Encoding::InterOnly),
        1 => Ok(Encoding::InterIntra),
        2 => Ok(Encoding::SingleEpoch),
        other => Err(MatrixFileError::Format(format!(
            "unknown encoding tag {other}"
        ))),
    }
}

/// Writes `matrix` in the binary `.rrm` format.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Example
///
/// ```
/// use popt_core::{serialize, Encoding, Quantization, RerefMatrix};
/// use popt_graph::Csr;
///
/// let t = Csr::from_edges(16, &[(0, 3), (5, 9)])?;
/// let m = RerefMatrix::build(&t, 16, 1, Quantization::EIGHT, Encoding::InterIntra);
/// let mut buf = Vec::new();
/// serialize::write_matrix(&m, &mut buf)?;
/// let back = serialize::read_matrix(&buf[..])?;
/// assert_eq!(m, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_matrix<W: Write>(matrix: &RerefMatrix, writer: W) -> Result<(), MatrixFileError> {
    let mut out = BufWriter::new(writer);
    out.write_all(MAGIC)?;
    out.write_all(&[
        matrix.quantization().bits(),
        encoding_tag(matrix.encoding()),
    ])?;
    for v in [
        matrix.outer_vertices() as u64,
        matrix.first_vertex() as u64,
        matrix.covered_vertices() as u64,
        matrix.vertices_per_line() as u64,
    ] {
        out.write_all(&v.to_le_bytes())?;
    }
    for &entry in matrix.raw_data() {
        out.write_all(&entry.to_le_bytes())?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a matrix written by [`write_matrix`].
///
/// # Errors
///
/// Returns [`MatrixFileError::Format`] on corrupt input.
pub fn read_matrix<R: Read>(reader: R) -> Result<RerefMatrix, MatrixFileError> {
    let mut input = BufReader::new(reader);
    let mut magic = [0u8; 8];
    input
        .read_exact(&mut magic)
        .map_err(|_| MatrixFileError::Format("truncated magic".into()))?;
    if &magic != MAGIC {
        return Err(MatrixFileError::Format("bad magic".into()));
    }
    let mut head = [0u8; 2];
    input
        .read_exact(&mut head)
        .map_err(|_| MatrixFileError::Format("truncated header".into()))?;
    if !(2..=16).contains(&head[0]) {
        return Err(MatrixFileError::Format(format!(
            "bad quantization bits {}",
            head[0]
        )));
    }
    let quant = Quantization::new(head[0]);
    let encoding = encoding_from_tag(head[1])?;
    let mut u64buf = [0u8; 8];
    let mut fields = [0u64; 4];
    for f in &mut fields {
        input
            .read_exact(&mut u64buf)
            .map_err(|_| MatrixFileError::Format("truncated geometry".into()))?;
        *f = u64::from_le_bytes(u64buf);
    }
    let [outer, first, covered, vpl] = fields;
    let inconsistent = || MatrixFileError::Format("inconsistent geometry".into());
    let end = first.checked_add(covered).ok_or_else(inconsistent)?;
    if vpl == 0 || first % vpl != 0 || end > outer {
        return Err(inconsistent());
    }
    // Header fields are untrusted input: reject rather than wrap values
    // beyond the 32-bit vertex space. `first` and `covered` are bounded by
    // `outer`, so they fit once it does.
    let outer = cast::narrow::<u32, u64>(outer)
        .map_err(|e| MatrixFileError::Format(format!("outer vertices: {e}")))?;
    let vpl = cast::narrow::<u32, u64>(vpl)
        .map_err(|e| MatrixFileError::Format(format!("vertices per line: {e}")))?;
    let mut matrix = RerefMatrix::geometry(
        outer as usize,
        cast::exact::<u32, u64>(first),
        covered as usize,
        vpl,
        1,
        quant,
        encoding,
    );
    let expected = matrix
        .num_lines()
        .checked_mul(matrix.num_epochs())
        .ok_or_else(inconsistent)?;
    // The entry count comes from the header: reserve a bounded amount and
    // grow while reading, so a truncated file with a huge header fails on
    // the short read instead of on the allocation.
    let mut data = Vec::with_capacity(expected.min(MAX_PREALLOC_ENTRIES));
    let mut u16buf = [0u8; 2];
    for _ in 0..expected {
        input
            .read_exact(&mut u16buf)
            .map_err(|_| MatrixFileError::Format("truncated entries".into()))?;
        data.push(u16::from_le_bytes(u16buf));
    }
    matrix.set_data(data);
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::generators;

    #[test]
    fn round_trip_preserves_every_encoding_and_quantization() {
        let g = generators::uniform_random(500, 3000, 7);
        let mut covered = 0;
        for encoding in [
            Encoding::InterOnly,
            Encoding::InterIntra,
            Encoding::SingleEpoch,
        ] {
            for quant in [
                Quantization::FOUR,
                Quantization::EIGHT,
                Quantization::SIXTEEN,
            ] {
                if encoding.payload_bits(quant) == 0 {
                    continue;
                }
                let m = RerefMatrix::build(g.out_csr(), 16, 1, quant, encoding);
                let mut buf = Vec::new();
                write_matrix(&m, &mut buf).unwrap();
                let back = read_matrix(&buf[..]).unwrap();
                assert_eq!(m, back, "{encoding} q{}", quant.bits());
                assert_eq!(back.quantization(), quant);
                assert_eq!(back.encoding(), encoding);
                covered += 1;
            }
        }
        assert_eq!(covered, 9, "all encoding x quantization combinations");
    }

    #[test]
    fn tiled_matrices_round_trip() {
        let g = generators::uniform_random(320, 2000, 3);
        let m = RerefMatrix::build_range(
            g.out_csr(),
            160,
            160,
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        assert_eq!(read_matrix(&buf[..]).unwrap(), m);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(read_matrix(&b"NOTARRM!"[..]).is_err());
        let g = generators::uniform_random(64, 300, 1);
        let m = RerefMatrix::build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        let truncated = &buf[..buf.len() - 1];
        assert!(matches!(
            read_matrix(truncated),
            Err(MatrixFileError::Format(_))
        ));
        // Corrupt the encoding tag.
        let mut bad = buf.clone();
        bad[9] = 77;
        assert!(read_matrix(&bad[..]).is_err());
    }

    /// A well-formed header (8-bit, inter+intra) with the given geometry
    /// and no entries.
    fn header(outer: u64, first: u64, covered: u64, vpl: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&[8, 1]);
        for v in [outer, first, covered, vpl] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    fn assert_format_error(buf: &[u8]) {
        match read_matrix(buf) {
            Err(MatrixFileError::Format(_)) => {}
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_first_plus_covered_is_rejected() {
        assert_format_error(&header(u64::MAX, 16, u64::MAX - 8, 16));
        assert_format_error(&header(1 << 40, u64::MAX - 15, 32, 16));
    }

    #[test]
    fn covered_range_past_outer_is_rejected() {
        assert_format_error(&header(64, 16, 64, 16));
        assert_format_error(&header(64, 0, 65, 1));
    }

    #[test]
    fn huge_outer_is_rejected_without_allocating() {
        // Beyond the 32-bit vertex space.
        assert_format_error(&header(u64::MAX, 0, 16, 16));
        assert_format_error(&header(1 << 32, 0, 1 << 32, 1));
        // Inside it, the header claims ~2^40 entries; the body is empty, so
        // the read fails long before such a buffer could be filled.
        let max = u64::from(u32::MAX);
        assert_format_error(&header(max, 0, max, 1));
    }
}
