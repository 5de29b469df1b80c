//! The trace store's error type.

/// Error type for `POPTTRC2` trace file operations.
///
/// Every malformed-input condition is a structured variant, so callers can
/// distinguish "not a `POPTTRC2` file" ([`BadMagic`]) from container
/// damage ([`Truncated`], [`Corrupt`]) and from per-chunk damage
/// ([`ChunkChecksum`], [`ChunkCorrupt`]) that leaves earlier chunks usable.
///
/// [`BadMagic`]: TraceFileError::BadMagic
/// [`Truncated`]: TraceFileError::Truncated
/// [`Corrupt`]: TraceFileError::Corrupt
/// [`ChunkChecksum`]: TraceFileError::ChunkChecksum
/// [`ChunkCorrupt`]: TraceFileError::ChunkCorrupt
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The leading bytes are not the `POPTTRC2` magic.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The stream ended in the middle of the named structure.
    Truncated {
        /// Which structure was cut short (e.g. `"magic"`, `"chunk payload"`).
        what: &'static str,
    },
    /// Container-level damage outside any chunk (header or footer).
    Corrupt {
        /// What was malformed.
        what: &'static str,
    },
    /// A chunk's payload failed its checksum; chunks before `chunk` have
    /// already been delivered intact.
    ChunkChecksum {
        /// Zero-based index of the damaged chunk.
        chunk: u64,
    },
    /// A chunk's payload passed its checksum but does not decode (or its
    /// header is malformed).
    ChunkCorrupt {
        /// Zero-based index of the damaged chunk.
        chunk: u64,
        /// What was malformed inside it.
        what: &'static str,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic { found } => {
                write!(f, "malformed trace file: bad magic {:02x?}", &found[..])
            }
            TraceFileError::Truncated { what } => {
                write!(f, "malformed trace file: truncated {what}")
            }
            TraceFileError::Corrupt { what } => {
                write!(f, "malformed trace file: {what}")
            }
            TraceFileError::ChunkChecksum { chunk } => {
                write!(f, "trace chunk {chunk} failed its checksum")
            }
            TraceFileError::ChunkCorrupt { chunk, what } => {
                write!(f, "trace chunk {chunk} is corrupt: {what}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}
