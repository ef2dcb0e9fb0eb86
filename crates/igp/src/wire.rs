//! Wire codec for the IGP's five packet types.
//!
//! The protocol exchanges Hello, Database Description (DBD), Link-State
//! Request, Link-State Update and Link-State Ack packets over
//! point-to-point interfaces. All integers are big-endian. Every packet
//! carries a Fletcher-16 checksum (the same family OSPF uses for LSAs)
//! computed over the whole packet with the checksum field zeroed.
//!
//! The codec is strict: trailing garbage, bad lengths, unknown
//! discriminants and checksum mismatches are all decode errors — a
//! router never acts on a packet it cannot fully validate.
//!
//! Instances do not run the codec among themselves: they hand each
//! other [`Datagram`]s, and [`Datagram::encoded_len`] says how many
//! bytes each would be, which is what the simulator accounts. The codec
//! runs where bytes exist: in [`crate::harness`], which encodes what
//! instances send and delivers bytes through
//! [`Instance::handle_packet`](crate::instance::Instance::handle_packet)
//! (decode, then [`Instance::receive`](crate::instance::Instance::receive));
//! in the simulator's debug builds, which encode every datagram queued
//! and decode it back to what was sent; and in the ledger's `igp.wire_*`
//! probes.

use crate::error::WireError;
use crate::lsa::{Lsa, LsaBody, LsaHeader, LsaKey, LsaKind, LsaLink};
use crate::types::{FwAddr, Metric, Prefix, RouterId, SeqNum};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;

/// Protocol version carried in every packet header.
pub const VERSION: u8 = 1;

/// Fixed packet header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Encoded length of an LSA header.
pub const LSA_HEADER_LEN: usize = 15;

/// Wire discriminant of an LS Update packet.
const TYPE_LS_UPDATE: u8 = 4;

/// A decoded protocol packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Periodic liveness + neighbor discovery.
    Hello(Hello),
    /// Database description (summary of LSDB contents).
    Dbd(Dbd),
    /// Request for specific full LSAs.
    LsRequest(LsRequest),
    /// Flooded or requested full LSAs.
    LsUpdate(LsUpdate),
    /// Explicit acknowledgment of received LSAs.
    LsAck(LsAck),
}

/// Hello packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Sender's hello interval, in seconds.
    pub hello_interval: u16,
    /// Sender's dead interval, in seconds.
    pub dead_interval: u16,
    /// Routers the sender has recently heard hellos from.
    pub seen: Vec<RouterId>,
}

/// Database description packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dbd {
    /// Init bit: first packet of the exchange.
    pub init: bool,
    /// More bit: sender has further headers to describe.
    pub more: bool,
    /// Master bit: sender claims the master role.
    pub master: bool,
    /// Exchange sequence number.
    pub dd_seq: u32,
    /// Described LSA headers.
    pub headers: Vec<LsaHeader>,
}

/// Link-state request packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsRequest {
    /// Keys of the LSAs being requested.
    pub keys: Vec<LsaKey>,
}

/// Link-state update packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsUpdate {
    /// Full LSAs being flooded.
    pub lsas: Vec<Lsa>,
}

/// Link-state ack packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsAck {
    /// Headers of the LSAs being acknowledged.
    pub headers: Vec<LsaHeader>,
}

/// A packet as one instance hands it to another: an LS Update carries
/// the sender's own LSA instances, shared with its LSDB and retransmit
/// lists; any other type is its decoded [`Packet`]. Its bytes are
/// [`Datagram::encode`]'s, and [`Datagram::encoded_len`] their number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datagram {
    /// An LS Update.
    Update(Vec<Arc<Lsa>>),
    /// Any other packet type.
    Other(Packet),
}

impl Datagram {
    /// Length of [`Datagram::encode`]'s bytes, without encoding them.
    pub fn encoded_len(&self) -> usize {
        match self {
            Datagram::Update(lsas) => ls_update_encoded_len(lsas.iter().map(|l| &**l)),
            Datagram::Other(p) => encoded_len(p),
        }
    }

    /// The bytes `sender` puts on the wire for this datagram.
    pub fn encode(&self, sender: RouterId) -> Bytes {
        match self {
            Datagram::Update(lsas) => encode_ls_update(lsas.iter().map(|l| &**l), sender),
            Datagram::Other(p) => encode(p, sender),
        }
    }
}

/// A decoded packet as a datagram: an LS Update's LSAs each get their
/// own `Arc`.
impl From<Packet> for Datagram {
    fn from(packet: Packet) -> Datagram {
        match packet {
            Packet::LsUpdate(u) => Datagram::Update(u.lsas.into_iter().map(Arc::new).collect()),
            other => Datagram::Other(other),
        }
    }
}

impl Packet {
    /// Wire discriminant for this packet type.
    pub fn type_byte(&self) -> u8 {
        match self {
            Packet::Hello(_) => 1,
            Packet::Dbd(_) => 2,
            Packet::LsRequest(_) => 3,
            Packet::LsUpdate(_) => TYPE_LS_UPDATE,
            Packet::LsAck(_) => 5,
        }
    }
}

/// Carry the two running Fletcher sums (each below 255) over `data`.
fn fletcher_sums((mut c0, mut c1): (u32, u32), data: &[u8]) -> (u32, u32) {
    for chunk in data.chunks(5802) {
        // 5802 is the largest block for which u32 sums cannot overflow.
        for &b in chunk {
            c0 += u32::from(b);
            c1 += c0;
        }
        c0 %= 255;
        c1 %= 255;
    }
    (c0, c1)
}

/// Fletcher-16 checksum (two running sums mod 255) over `data`.
pub fn fletcher16(data: &[u8]) -> u16 {
    let (c0, c1) = fletcher_sums((0, 0), data);
    ((c1 as u16) << 8) | c0 as u16
}

/// The checksum `packet` (header included) must carry: Fletcher-16
/// over all of it with the checksum field (bytes 8–9) read as zero,
/// whatever it holds — in place, so verifying a datagram copies nothing.
fn packet_checksum(packet: &[u8]) -> u16 {
    let (c0, c1) = fletcher_sums((0, 0), &packet[..8]);
    // Two zero bytes leave `c0` as it is and add it to `c1` twice.
    let sums = (c0, (c1 + 2 * c0) % 255);
    let (c0, c1) = fletcher_sums(sums, &packet[10..]);
    ((c1 as u16) << 8) | c0 as u16
}

fn put_prefix(buf: &mut BytesMut, p: Prefix) {
    buf.put_u32(p.addr());
    buf.put_u8(p.len());
}

fn get_prefix(buf: &mut Bytes) -> Result<Prefix, WireError> {
    need(buf, 5)?;
    let addr = buf.get_u32();
    let len = buf.get_u8();
    if len > 32 {
        return Err(WireError::BadPrefixLen(len));
    }
    Ok(Prefix::new(addr, len))
}

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated {
            need: n,
            have: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

fn put_lsa_header(buf: &mut BytesMut, h: &LsaHeader) {
    buf.put_u32(h.key.origin.0);
    buf.put_u8(h.key.kind as u8);
    buf.put_u32(h.key.id);
    buf.put_i32(h.seq.0);
    buf.put_u16(h.age);
}

fn get_lsa_header(buf: &mut Bytes) -> Result<LsaHeader, WireError> {
    need(buf, LSA_HEADER_LEN)?;
    let origin = RouterId(buf.get_u32());
    let kind_byte = buf.get_u8();
    let kind = LsaKind::from_u8(kind_byte).ok_or(WireError::BadLsaKind(kind_byte))?;
    let id = buf.get_u32();
    let seq = SeqNum(buf.get_i32());
    let age = buf.get_u16();
    Ok(LsaHeader {
        key: LsaKey { origin, kind, id },
        seq,
        age,
    })
}

/// Encode a full LSA (header + length-prefixed body).
pub fn encode_lsa(lsa: &Lsa, buf: &mut BytesMut) {
    put_lsa_header(buf, &lsa.header());
    let len_at = buf.len();
    buf.put_u16(0); // body length, patched below
    match &lsa.body {
        LsaBody::Router { links } => {
            buf.put_u16(links.len() as u16);
            for l in links {
                buf.put_u32(l.to.0);
                buf.put_u32(l.metric.0);
            }
        }
        LsaBody::Prefix { prefix, metric } => {
            put_prefix(buf, *prefix);
            buf.put_u32(metric.0);
        }
        LsaBody::Fake {
            attach,
            attach_metric,
            prefix,
            prefix_metric,
            fw,
        } => {
            buf.put_u32(attach.0);
            buf.put_u32(attach_metric.0);
            put_prefix(buf, *prefix);
            buf.put_u32(prefix_metric.0);
            buf.put_u32(fw.router.0);
            buf.put_u16(fw.addr);
        }
    }
    let body_len = (buf.len() - len_at - 2) as u16;
    buf[len_at..len_at + 2].copy_from_slice(&body_len.to_be_bytes());
}

/// Decode a full LSA; validates the body length and kind consistency.
pub fn decode_lsa(buf: &mut Bytes) -> Result<Lsa, WireError> {
    let hdr = get_lsa_header(buf)?;
    need(buf, 2)?;
    let body_len = buf.get_u16() as usize;
    need(buf, body_len)?;
    let mut body = buf.split_to(body_len);
    let parsed = match hdr.key.kind {
        LsaKind::Router => {
            if body.remaining() < 2 {
                return Err(WireError::Truncated {
                    need: 2,
                    have: body.remaining(),
                });
            }
            let n = body.get_u16() as usize;
            let mut links = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&body, 8)?;
                links.push(LsaLink {
                    to: RouterId(body.get_u32()),
                    metric: Metric(body.get_u32()),
                });
            }
            LsaBody::Router { links }
        }
        LsaKind::Prefix => {
            let prefix = get_prefix(&mut body)?;
            need(&body, 4)?;
            let metric = Metric(body.get_u32());
            LsaBody::Prefix { prefix, metric }
        }
        LsaKind::Fake => {
            need(&body, 8)?;
            let attach = RouterId(body.get_u32());
            let attach_metric = Metric(body.get_u32());
            let prefix = get_prefix(&mut body)?;
            need(&body, 10)?;
            let prefix_metric = Metric(body.get_u32());
            let fw_router = RouterId(body.get_u32());
            let fw_addr = body.get_u16();
            LsaBody::Fake {
                attach,
                attach_metric,
                prefix,
                prefix_metric,
                fw: FwAddr {
                    router: fw_router,
                    addr: fw_addr,
                },
            }
        }
    };
    if body.has_remaining() {
        return Err(WireError::BadLength {
            declared: body_len,
            actual: body_len - body.remaining(),
        });
    }
    Ok(Lsa {
        key: hdr.key,
        seq: hdr.seq,
        age: hdr.age,
        body: parsed,
    })
}

/// Start a packet: the fixed header with the length and checksum
/// fields still zero ([`finish`] patches both once the body is in).
fn begin(ptype: u8, sender: RouterId) -> BytesMut {
    let mut out = BytesMut::with_capacity(128);
    out.put_u8(VERSION);
    out.put_u8(ptype);
    out.put_u16(0); // total length
    out.put_u32(sender.0);
    out.put_u16(0); // checksum
    out.put_u16(0); // reserved
    out
}

/// Patch the total length, then the checksum (computed over the whole
/// packet with its own field zero), and freeze.
fn finish(mut out: BytesMut) -> Bytes {
    let total = out.len() as u16;
    out[2..4].copy_from_slice(&total.to_be_bytes());
    let ck = packet_checksum(&out);
    out[8..10].copy_from_slice(&ck.to_be_bytes());
    out.freeze()
}

/// Encode an LS Update carrying `lsas` — byte for byte what [`encode`]
/// produces for `Packet::LsUpdate`, without first collecting owned
/// copies of the LSAs into a packet.
pub fn encode_ls_update<'a>(
    lsas: impl ExactSizeIterator<Item = &'a Lsa>,
    sender: RouterId,
) -> Bytes {
    let mut out = begin(TYPE_LS_UPDATE, sender);
    out.put_u16(lsas.len() as u16);
    for l in lsas {
        encode_lsa(l, &mut out);
    }
    finish(out)
}

/// Encoded length of a full LSA (header, body length, body): what
/// [`encode_lsa`] appends.
pub fn lsa_encoded_len(lsa: &Lsa) -> usize {
    const PREFIX_LEN: usize = 5;
    let body = match &lsa.body {
        LsaBody::Router { links } => 2 + 8 * links.len(),
        LsaBody::Prefix { .. } => PREFIX_LEN + 4,
        LsaBody::Fake { .. } => 4 + 4 + PREFIX_LEN + 4 + 4 + 2,
    };
    LSA_HEADER_LEN + 2 + body
}

/// Encoded length of an LS Update carrying `lsas`: what
/// [`encode_ls_update`] produces, without encoding it.
pub fn ls_update_encoded_len<'a>(lsas: impl IntoIterator<Item = &'a Lsa>) -> usize {
    HEADER_LEN + 2 + lsas.into_iter().map(lsa_encoded_len).sum::<usize>()
}

/// Encoded length of `packet`, header included: `encode(packet,
/// sender).len()` for any sender, without encoding it.
pub fn encoded_len(packet: &Packet) -> usize {
    let body = match packet {
        Packet::Hello(h) => 6 + 4 * h.seen.len(),
        Packet::Dbd(d) => 7 + LSA_HEADER_LEN * d.headers.len(),
        Packet::LsRequest(r) => 2 + 9 * r.keys.len(),
        Packet::LsUpdate(u) => return ls_update_encoded_len(&u.lsas),
        Packet::LsAck(a) => 2 + LSA_HEADER_LEN * a.headers.len(),
    };
    HEADER_LEN + body
}

/// Encode a packet (header + body + checksum) ready for transmission.
pub fn encode(packet: &Packet, sender: RouterId) -> Bytes {
    let mut out = begin(packet.type_byte(), sender);
    match packet {
        Packet::Hello(h) => {
            out.put_u16(h.hello_interval);
            out.put_u16(h.dead_interval);
            out.put_u16(h.seen.len() as u16);
            for r in &h.seen {
                out.put_u32(r.0);
            }
        }
        Packet::Dbd(d) => {
            let mut flags = 0u8;
            if d.init {
                flags |= 0x1;
            }
            if d.more {
                flags |= 0x2;
            }
            if d.master {
                flags |= 0x4;
            }
            out.put_u8(flags);
            out.put_u32(d.dd_seq);
            out.put_u16(d.headers.len() as u16);
            for h in &d.headers {
                put_lsa_header(&mut out, h);
            }
        }
        Packet::LsRequest(r) => {
            out.put_u16(r.keys.len() as u16);
            for k in &r.keys {
                out.put_u32(k.origin.0);
                out.put_u8(k.kind as u8);
                out.put_u32(k.id);
            }
        }
        Packet::LsUpdate(u) => return encode_ls_update(u.lsas.iter(), sender),
        Packet::LsAck(a) => {
            out.put_u16(a.headers.len() as u16);
            for h in &a.headers {
                put_lsa_header(&mut out, h);
            }
        }
    }
    finish(out)
}

/// Decode and validate a packet; returns the sender and the payload.
pub fn decode(mut buf: Bytes) -> Result<(RouterId, Packet), WireError> {
    if buf.remaining() < HEADER_LEN {
        return Err(WireError::Truncated {
            need: HEADER_LEN,
            have: buf.remaining(),
        });
    }
    let actual = buf.len();
    let got = u16::from_be_bytes([buf[8], buf[9]]);
    let expect = packet_checksum(&buf);
    if got != expect {
        return Err(WireError::BadChecksum { expect, got });
    }

    let version = buf.get_u8();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let ptype = buf.get_u8();
    let declared = buf.get_u16() as usize;
    if declared != actual {
        return Err(WireError::BadLength { declared, actual });
    }
    let sender = RouterId(buf.get_u32());
    let _ck = buf.get_u16();
    let _reserved = buf.get_u16();

    let packet = match ptype {
        1 => {
            need(&buf, 6)?;
            let hello_interval = buf.get_u16();
            let dead_interval = buf.get_u16();
            let n = buf.get_u16() as usize;
            let mut seen = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                need(&buf, 4)?;
                seen.push(RouterId(buf.get_u32()));
            }
            Packet::Hello(Hello {
                hello_interval,
                dead_interval,
                seen,
            })
        }
        2 => {
            need(&buf, 7)?;
            let flags = buf.get_u8();
            let dd_seq = buf.get_u32();
            let n = buf.get_u16() as usize;
            let mut headers = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                headers.push(get_lsa_header(&mut buf)?);
            }
            Packet::Dbd(Dbd {
                init: flags & 0x1 != 0,
                more: flags & 0x2 != 0,
                master: flags & 0x4 != 0,
                dd_seq,
                headers,
            })
        }
        3 => {
            need(&buf, 2)?;
            let n = buf.get_u16() as usize;
            let mut keys = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                need(&buf, 9)?;
                let origin = RouterId(buf.get_u32());
                let kind_byte = buf.get_u8();
                let kind = LsaKind::from_u8(kind_byte).ok_or(WireError::BadLsaKind(kind_byte))?;
                let id = buf.get_u32();
                keys.push(LsaKey { origin, kind, id });
            }
            Packet::LsRequest(LsRequest { keys })
        }
        TYPE_LS_UPDATE => {
            need(&buf, 2)?;
            let n = buf.get_u16() as usize;
            let mut lsas = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                lsas.push(decode_lsa(&mut buf)?);
            }
            Packet::LsUpdate(LsUpdate { lsas })
        }
        5 => {
            need(&buf, 2)?;
            let n = buf.get_u16() as usize;
            let mut headers = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                headers.push(get_lsa_header(&mut buf)?);
            }
            Packet::LsAck(LsAck { headers })
        }
        other => return Err(WireError::BadPacketType(other)),
    };
    if buf.has_remaining() {
        return Err(WireError::BadLength {
            declared,
            actual: declared - buf.remaining(),
        });
    }
    Ok((sender, packet))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let bytes = encode(&p, RouterId(42));
        let (sender, decoded) = decode(bytes).expect("decode");
        assert_eq!(sender, RouterId(42));
        assert_eq!(decoded, p);
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(Packet::Hello(Hello {
            hello_interval: 1,
            dead_interval: 4,
            seen: vec![RouterId(1), RouterId(9)],
        }));
        roundtrip(Packet::Hello(Hello {
            hello_interval: 10,
            dead_interval: 40,
            seen: vec![],
        }));
    }

    #[test]
    fn dbd_roundtrip() {
        roundtrip(Packet::Dbd(Dbd {
            init: true,
            more: true,
            master: false,
            dd_seq: 0xdead_beef,
            headers: vec![LsaHeader {
                key: LsaKey {
                    origin: RouterId(3),
                    kind: LsaKind::Router,
                    id: 0,
                },
                seq: SeqNum(17),
                age: 12,
            }],
        }));
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(Packet::LsRequest(LsRequest {
            keys: vec![
                LsaKey {
                    origin: RouterId(1),
                    kind: LsaKind::Prefix,
                    id: 4,
                },
                LsaKey {
                    origin: RouterId::fake(2),
                    kind: LsaKind::Fake,
                    id: 0,
                },
            ],
        }));
    }

    #[test]
    fn update_roundtrip_all_lsa_kinds() {
        let lsas = vec![
            Lsa::router(
                RouterId(1),
                SeqNum(3),
                vec![
                    LsaLink {
                        to: RouterId(2),
                        metric: Metric(10),
                    },
                    LsaLink {
                        to: RouterId(7),
                        metric: Metric(2),
                    },
                ],
            ),
            Lsa::prefix(RouterId(1), 1, SeqNum(2), Prefix::net24(9), Metric(0)),
            Lsa::fake(
                RouterId::fake(5),
                SeqNum(1),
                RouterId(1),
                Metric(1),
                Prefix::net24(9),
                Metric(1),
                FwAddr::secondary(RouterId(2), 3),
            ),
        ];
        roundtrip(Packet::LsUpdate(LsUpdate { lsas }));
    }

    #[test]
    fn ack_roundtrip() {
        roundtrip(Packet::LsAck(LsAck {
            headers: vec![LsaHeader {
                key: LsaKey {
                    origin: RouterId(6),
                    kind: LsaKind::Fake,
                    id: 1,
                },
                seq: SeqNum(-4),
                age: 3600,
            }],
        }));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode(
            &Packet::Hello(Hello {
                hello_interval: 1,
                dead_interval: 4,
                seen: vec![RouterId(1)],
            }),
            RouterId(42),
        );
        // Fletcher-16 cannot see 0x00 ↔ 0xff flips (255 ≡ 0 mod 255),
        // like the real OSPF checksum; a ±1 change is always caught.
        for i in 0..bytes.len() {
            let mut corrupted = bytes.to_vec();
            corrupted[i] ^= 0x01;
            let res = decode(Bytes::from(corrupted));
            assert!(res.is_err(), "corruption at byte {i} went undetected");
        }
    }

    /// What licenses verifying the checksum in place: for one packet of
    /// each type, the bytes decode back to the packet and no single-bit
    /// flip anywhere — the checksum and length fields included — does.
    #[test]
    fn every_single_bit_flip_of_every_packet_type_is_rejected() {
        let header = |origin: u32, kind: LsaKind, age: u16| LsaHeader {
            key: LsaKey {
                origin: RouterId(origin),
                kind,
                id: 2,
            },
            seq: SeqNum(0x0102_0304),
            age,
        };
        let link = |to: u32, m: u32| LsaLink {
            to: RouterId(to),
            metric: Metric(m),
        };
        let packets = [
            Packet::Hello(Hello {
                hello_interval: 1,
                dead_interval: 4,
                seen: vec![RouterId(1), RouterId(0x00ff_ff00)],
            }),
            Packet::Dbd(Dbd {
                init: false,
                more: true,
                master: true,
                dd_seq: 0xdead_beef,
                headers: vec![
                    header(3, LsaKind::Router, 12),
                    header(4, LsaKind::Fake, 3600),
                ],
            }),
            Packet::LsRequest(LsRequest {
                keys: vec![
                    header(1, LsaKind::Prefix, 0).key,
                    header(9, LsaKind::Router, 0).key,
                ],
            }),
            Packet::LsUpdate(LsUpdate {
                lsas: vec![
                    Lsa::router(RouterId(1), SeqNum(3), vec![link(2, 10), link(7, 0xff)]),
                    Lsa::prefix(RouterId(1), 1, SeqNum(2), Prefix::net24(9), Metric(0)),
                    Lsa::fake(
                        RouterId::fake(5),
                        SeqNum(1),
                        RouterId(1),
                        Metric(1),
                        Prefix::net24(9),
                        Metric(1),
                        FwAddr::secondary(RouterId(2), 3),
                    ),
                ],
            }),
            Packet::LsAck(LsAck {
                headers: vec![header(6, LsaKind::Fake, 3600)],
            }),
        ];
        for p in &packets {
            let bytes = encode(p, RouterId(42));
            assert_eq!(decode(bytes.clone()), Ok((RouterId(42), p.clone())));
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode(Bytes::from(flipped)).is_err(),
                    "type {}: flip of bit {} in byte {} went undetected",
                    p.type_byte(),
                    bit % 8,
                    bit / 8
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(
            &Packet::Hello(Hello {
                hello_interval: 1,
                dead_interval: 4,
                seen: vec![RouterId(1), RouterId(2)],
            }),
            RouterId(42),
        );
        for cut in 0..bytes.len() {
            let res = decode(bytes.slice(0..cut));
            assert!(res.is_err(), "truncation to {cut} bytes went undetected");
        }
    }

    #[test]
    fn fletcher_matches_reference_values() {
        assert_eq!(fletcher16(b""), 0);
        assert_eq!(fletcher16(b"\x01\x02"), {
            // c0 = 3, c1 = 1 + 3 = 4
            (4 << 8) | 3
        });
        assert_eq!(fletcher16(b"abcde"), {
            let mut c0: u32 = 0;
            let mut c1: u32 = 0;
            for &b in b"abcde" {
                c0 = (c0 + u32::from(b)) % 255;
                c1 = (c1 + c0) % 255;
            }
            ((c1 as u16) << 8) | c0 as u16
        });
    }

    #[test]
    fn bad_version_and_type_rejected() {
        let good = encode(
            &Packet::Hello(Hello {
                hello_interval: 1,
                dead_interval: 4,
                seen: vec![],
            }),
            RouterId(1),
        );
        // Flip version, fix checksum.
        let mut v = good.to_vec();
        v[0] = 9;
        v[8] = 0;
        v[9] = 0;
        let ck = fletcher16(&v);
        v[8] = (ck >> 8) as u8;
        v[9] = (ck & 0xff) as u8;
        assert!(matches!(
            decode(Bytes::from(v)),
            Err(WireError::BadVersion(9))
        ));

        let mut v = good.to_vec();
        v[1] = 0x7f;
        v[8] = 0;
        v[9] = 0;
        let ck = fletcher16(&v);
        v[8] = (ck >> 8) as u8;
        v[9] = (ck & 0xff) as u8;
        assert!(matches!(
            decode(Bytes::from(v)),
            Err(WireError::BadPacketType(0x7f))
        ));
    }
}
