//! RTP header encoding/decoding and payload-type profiles.
//!
//! DiversiFi is application-transparent (§5.2.1): it learns a stream's
//! rate, packet size and deadlines from the RTP payload-type field (RFC
//! 3550/3551) rather than from the application. This module implements the
//! 12-byte RTP fixed header and the static payload-type → profile table
//! used at stream initialization.

use diversifi_simcore::SimDuration;
use diversifi_voip::StreamSpec;
use serde::{Deserialize, Serialize};

/// The RTP fixed header (RFC 3550 §5.1), without CSRC entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RtpHeader {
    /// Version — always 2.
    pub version: u8,
    /// Marker bit.
    pub marker: bool,
    /// Payload type (RFC 3551 static assignments: 0 = PCMU/G.711).
    pub payload_type: u8,
    /// Sequence number (wraps at 2^16).
    pub sequence: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronisation source.
    pub ssrc: u32,
}

/// Length of the fixed header in bytes.
pub const RTP_HEADER_LEN: usize = 12;

/// Errors from header parsing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtpError {
    /// Fewer than 12 bytes.
    Truncated,
    /// Version field is not 2.
    BadVersion(u8),
}

impl std::fmt::Display for RtpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtpError::Truncated => write!(f, "RTP header truncated"),
            RtpError::BadVersion(v) => write!(f, "RTP version {v} unsupported"),
        }
    }
}

impl std::error::Error for RtpError {}

impl RtpHeader {
    /// A PCMU (G.711 µ-law, payload type 0) header.
    pub fn pcmu(sequence: u16, timestamp: u32, ssrc: u32) -> RtpHeader {
        RtpHeader { version: 2, marker: false, payload_type: 0, sequence, timestamp, ssrc }
    }

    /// Serialise to wire format (network byte order).
    pub fn encode(&self) -> [u8; RTP_HEADER_LEN] {
        let mut b = [0u8; RTP_HEADER_LEN];
        b[0] = (self.version & 0x3) << 6; // P=0, X=0, CC=0
        b[1] = ((self.marker as u8) << 7) | (self.payload_type & 0x7F);
        b[2..4].copy_from_slice(&self.sequence.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        b
    }

    /// Parse from wire format; bytes past the fixed header are ignored.
    pub fn decode(data: &[u8]) -> Result<RtpHeader, RtpError> {
        let Some(h) = data.get(..RTP_HEADER_LEN) else {
            return Err(RtpError::Truncated);
        };
        let version = h[0] >> 6;
        if version != 2 {
            return Err(RtpError::BadVersion(version));
        }
        Ok(RtpHeader {
            version,
            marker: h[1] & 0x80 != 0,
            payload_type: h[1] & 0x7F,
            sequence: u16::from_be_bytes([h[2], h[3]]),
            timestamp: u32::from_be_bytes([h[4], h[5], h[6], h[7]]),
            ssrc: u32::from_be_bytes([h[8], h[9], h[10], h[11]]),
        })
    }
}

/// Stream profile derived from an RTP payload type (RFC 3551 table 4/5),
/// giving the network stack everything §5.2.1 needs: rate, packet size and
/// packet deadlines.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PayloadProfile {
    /// The static payload type number.
    pub payload_type: u8,
    /// Descriptive codec name.
    pub name: &'static str,
    /// The implied constant-bit-rate stream shape (2-minute default
    /// duration; callers override).
    pub spec: StreamSpec,
    /// One-way deadline the traffic class tolerates on the access hop.
    pub max_tolerable_delay: SimDuration,
}

/// Look up the profile for a static payload type. Returns `None` for
/// dynamic (96–127) and unassigned types, which need out-of-band signalling.
pub fn profile_for(payload_type: u8) -> Option<PayloadProfile> {
    match payload_type {
        0 | 8 => Some(PayloadProfile {
            payload_type,
            name: if payload_type == 0 { "PCMU/G.711u" } else { "PCMA/G.711a" },
            spec: StreamSpec::voip(),
            max_tolerable_delay: SimDuration::from_millis(100),
        }),
        26 => Some(PayloadProfile {
            payload_type,
            name: "JPEG video",
            spec: StreamSpec::high_rate(),
            max_tolerable_delay: SimDuration::from_millis(100),
        }),
        34 => Some(PayloadProfile {
            payload_type,
            name: "H.263 video",
            spec: StreamSpec::high_rate(),
            max_tolerable_delay: SimDuration::from_millis(100),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let h = RtpHeader {
            version: 2,
            marker: true,
            payload_type: 0,
            sequence: 0xBEEF,
            timestamp: 0x12345678,
            ssrc: 0xCAFEBABE,
        };
        let wire = h.encode();
        assert_eq!(wire.len(), RTP_HEADER_LEN);
        // Network byte order, as RFC 3550 puts it on the wire.
        assert_eq!(wire, [0x80, 0x80, 0xBE, 0xEF, 0x12, 0x34, 0x56, 0x78, 0xCA, 0xFE, 0xBA, 0xBE]);
        let back = RtpHeader::decode(&wire).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn pcmu_constructor() {
        let h = RtpHeader::pcmu(1, 160, 7);
        assert_eq!(h.payload_type, 0);
        assert_eq!(h.version, 2);
        assert!(!h.marker);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(RtpHeader::decode(&[0x80; 5]), Err(RtpError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut wire = RtpHeader::pcmu(0, 0, 0).encode();
        wire[0] = 0x40; // version 1
        assert_eq!(RtpHeader::decode(&wire), Err(RtpError::BadVersion(1)));
    }

    #[test]
    fn sequence_wraps_preserved() {
        let h = RtpHeader::pcmu(u16::MAX, 0, 0);
        let back = RtpHeader::decode(&h.encode()).unwrap();
        assert_eq!(back.sequence, u16::MAX);
    }

    #[test]
    fn g711_profile_matches_paper_workload() {
        let p = profile_for(0).unwrap();
        assert_eq!(p.spec.packet_bytes, 160);
        assert_eq!(p.spec.interval, SimDuration::from_millis(20));
        assert_eq!(p.max_tolerable_delay, SimDuration::from_millis(100));
        assert!(profile_for(8).is_some());
        assert!(profile_for(26).is_some());
    }

    #[test]
    fn dynamic_types_need_signalling() {
        assert!(profile_for(96).is_none());
        assert!(profile_for(127).is_none());
        assert!(profile_for(55).is_none());
    }
}
