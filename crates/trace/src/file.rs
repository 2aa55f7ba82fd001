//! A compact binary on-disk format for phase traces.
//!
//! The paper's step A writes traces to files once and reuses them across
//! every simulated configuration (§IV-A1); this module provides the same
//! workflow: generate once with [`TraceGenerator`](crate::TraceGenerator),
//! persist with [`write_phase`], and replay with [`read_phase`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"SNTR"
//! version u32 (currently 1)
//! cores   u32
//! per core:
//!   count u64
//!   count × { addr u64, icount u64, kind u8 (0=read, 1=write) }
//! ```
//!
//! Core ids are implicit (dense, in order), so records are 17 bytes each.

use std::io::{self, Read, Write};

use starnuma_types::{AccessType, CoreId, MemAccess, PhysAddr};

use crate::generator::PhaseTrace;

const MAGIC: &[u8; 4] = b"SNTR";
const VERSION: u32 = 1;
/// Upper bound on the records per core reserved on the word of a header's
/// count field (64 Ki records ≈ 1.5 MiB); longer streams grow as records
/// actually arrive.
const PREALLOC_CAP: usize = 1 << 16;

/// Serializes a phase trace. Pass `&mut writer` to keep using the writer
/// afterwards.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Examples
///
/// ```
/// use starnuma_trace::{read_phase, write_phase, TraceGenerator, Workload};
///
/// # fn main() -> std::io::Result<()> {
/// let mut gen = TraceGenerator::new(&Workload::Tpcc.profile(), 16, 4, 1);
/// let phase = gen.generate_phase(2_000);
/// let mut buf = Vec::new();
/// write_phase(&mut buf, &phase)?;
/// let replayed = read_phase(&buf[..])?;
/// assert_eq!(phase.per_core, replayed.per_core);
/// # Ok(())
/// # }
/// ```
pub fn write_phase<W: Write>(mut w: W, trace: &PhaseTrace) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.per_core.len() as u32).to_le_bytes())?;
    for stream in &trace.per_core {
        w.write_all(&(stream.len() as u64).to_le_bytes())?;
        for a in stream {
            w.write_all(&a.addr.raw().to_le_bytes())?;
            w.write_all(&a.icount.to_le_bytes())?;
            w.write_all(&[u8::from(a.kind.is_write())])?;
        }
    }
    Ok(())
}

/// Deserializes a phase trace written by [`write_phase`]. Pass `&mut reader`
/// to keep using the reader afterwards.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad magic, version, or
/// record, or when a core's `icount` decreases (each stream must be sorted
/// by `icount`, as [`PhaseTrace`] documents), and propagates I/O errors
/// from `r`.
pub fn read_phase<R: Read>(mut r: R) -> io::Result<PhaseTrace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a StarNUMA trace (bad magic)",
        ));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let cores = read_u32(&mut r)? as usize;
    if cores > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible core count",
        ));
    }
    let mut per_core = Vec::with_capacity(cores);
    for core_idx in 0..cores {
        let count = read_u64(&mut r)? as usize;
        let mut stream: Vec<MemAccess> = Vec::with_capacity(count.min(PREALLOC_CAP));
        for _ in 0..count {
            let addr = read_u64(&mut r)?;
            let icount = read_u64(&mut r)?;
            if stream.last().is_some_and(|prev| icount < prev.icount) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("core {core_idx}: icount decreases to {icount}"),
                ));
            }
            let mut kind = [0u8; 1];
            r.read_exact(&mut kind)?;
            let kind = match kind[0] {
                0 => AccessType::Read,
                1 => AccessType::Write,
                k => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad access kind {k}"),
                    ))
                }
            };
            stream.push(MemAccess::new(
                CoreId::new(core_idx as u32),
                PhysAddr::new(addr),
                kind,
                icount,
            ));
        }
        per_core.push(stream);
    }
    Ok(PhaseTrace { per_core })
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::profile::Workload;

    #[test]
    fn roundtrip_preserves_traces() {
        let mut gen = TraceGenerator::new(&Workload::Bfs.profile(), 16, 4, 9);
        let phase = gen.generate_phase(5_000);
        let mut buf = Vec::new();
        write_phase(&mut buf, &phase).expect("write to Vec cannot fail");
        let replayed = read_phase(&buf[..]).expect("roundtrip");
        assert_eq!(phase.per_core, replayed.per_core);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let phase = PhaseTrace::default();
        let mut buf = Vec::new();
        write_phase(&mut buf, &phase).unwrap();
        let replayed = read_phase(&buf[..]).unwrap();
        assert_eq!(replayed.per_core.len(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_phase(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SNTR");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_phase(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut gen = TraceGenerator::new(&Workload::Tc.profile(), 4, 2, 1);
        let phase = gen.generate_phase(2_000);
        let mut buf = Vec::new();
        write_phase(&mut buf, &phase).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_phase(&buf[..]).is_err());
    }

    #[test]
    fn bad_kind_byte_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SNTR");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one core
        buf.extend_from_slice(&1u64.to_le_bytes()); // one record
        buf.extend_from_slice(&0u64.to_le_bytes()); // addr
        buf.extend_from_slice(&5u64.to_le_bytes()); // icount
        buf.push(7); // invalid kind
        let err = read_phase(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("bad access kind"));
    }

    #[test]
    fn decreasing_icount_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SNTR");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one core
        buf.extend_from_slice(&2u64.to_le_bytes()); // two records
        for icount in [9u64, 8] {
            buf.extend_from_slice(&0u64.to_le_bytes()); // addr
            buf.extend_from_slice(&icount.to_le_bytes());
            buf.push(0);
        }
        let err = read_phase(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("icount decreases"), "{err}");
    }

    #[test]
    fn huge_count_without_records_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SNTR");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one core
        buf.extend_from_slice(&(1u64 << 24).to_le_bytes()); // 2^24 records, none follow
        let err = read_phase(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn record_size_is_compact() {
        let mut gen = TraceGenerator::new(&Workload::Poa.profile(), 16, 4, 2);
        let phase = gen.generate_phase(3_000);
        let mut buf = Vec::new();
        write_phase(&mut buf, &phase).unwrap();
        let expected = 4 + 4 + 4 + 64 * 8 + phase.total_accesses() * 17;
        assert_eq!(buf.len(), expected);
    }
}
