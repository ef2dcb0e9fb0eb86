//! Property-based tests of the wire codec: arbitrary valid packets
//! roundtrip byte-exactly, and the decoder never panics on arbitrary
//! input (it is fed by a network), nor on valid packets whose bodies
//! were overwritten under a fresh checksum.

use bytes::{BufMut, Bytes, BytesMut};
use fib_igp::error::WireError;
use fib_igp::lsa::{Lsa, LsaBody, LsaHeader, LsaKey, LsaKind, LsaLink};
use fib_igp::types::{FwAddr, Metric, Prefix, RouterId, SeqNum};
use fib_igp::wire::{
    decode, encode, encode_ls_update, encoded_len, fletcher16, Dbd, Hello, LsAck, LsRequest,
    LsUpdate, Packet, HEADER_LEN, VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The encoder as it was before it wrote into one buffer: the body goes
/// into a buffer of its own (and each LSA body into another), whose
/// length is then known when the header is written in front of a copy.
/// Kept as the reference the single-buffer, back-patching encoder must
/// match byte for byte.
mod two_buffer {
    use super::*;

    fn put_prefix(buf: &mut BytesMut, p: Prefix) {
        buf.put_u32(p.addr());
        buf.put_u8(p.len());
    }

    fn put_lsa_header(buf: &mut BytesMut, h: &LsaHeader) {
        buf.put_u32(h.key.origin.0);
        buf.put_u8(h.key.kind as u8);
        buf.put_u32(h.key.id);
        buf.put_i32(h.seq.0);
        buf.put_u16(h.age);
    }

    fn encode_lsa(lsa: &Lsa, buf: &mut BytesMut) {
        put_lsa_header(buf, &lsa.header());
        let mut body = BytesMut::new();
        match &lsa.body {
            LsaBody::Router { links } => {
                body.put_u16(links.len() as u16);
                for l in links {
                    body.put_u32(l.to.0);
                    body.put_u32(l.metric.0);
                }
            }
            LsaBody::Prefix { prefix, metric } => {
                put_prefix(&mut body, *prefix);
                body.put_u32(metric.0);
            }
            LsaBody::Fake {
                attach,
                attach_metric,
                prefix,
                prefix_metric,
                fw,
            } => {
                body.put_u32(attach.0);
                body.put_u32(attach_metric.0);
                put_prefix(&mut body, *prefix);
                body.put_u32(prefix_metric.0);
                body.put_u32(fw.router.0);
                body.put_u16(fw.addr);
            }
        }
        buf.put_u16(body.len() as u16);
        buf.extend_from_slice(&body);
    }

    pub fn encode(packet: &Packet, sender: RouterId) -> Bytes {
        let mut body = BytesMut::new();
        match packet {
            Packet::Hello(h) => {
                body.put_u16(h.hello_interval);
                body.put_u16(h.dead_interval);
                body.put_u16(h.seen.len() as u16);
                for r in &h.seen {
                    body.put_u32(r.0);
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
                body.put_u8(flags);
                body.put_u32(d.dd_seq);
                body.put_u16(d.headers.len() as u16);
                for h in &d.headers {
                    put_lsa_header(&mut body, h);
                }
            }
            Packet::LsRequest(r) => {
                body.put_u16(r.keys.len() as u16);
                for k in &r.keys {
                    body.put_u32(k.origin.0);
                    body.put_u8(k.kind as u8);
                    body.put_u32(k.id);
                }
            }
            Packet::LsUpdate(u) => {
                body.put_u16(u.lsas.len() as u16);
                for l in &u.lsas {
                    encode_lsa(l, &mut body);
                }
            }
            Packet::LsAck(a) => {
                body.put_u16(a.headers.len() as u16);
                for h in &a.headers {
                    put_lsa_header(&mut body, h);
                }
            }
        }
        let total = HEADER_LEN + body.len();
        let mut out = BytesMut::with_capacity(total);
        out.put_u8(VERSION);
        out.put_u8(packet.type_byte());
        out.put_u16(total as u16);
        out.put_u32(sender.0);
        out.put_u16(0); // checksum placeholder
        out.put_u16(0); // reserved
        out.extend_from_slice(&body);
        let ck = fletcher16(&out);
        out[8] = (ck >> 8) as u8;
        out[9] = (ck & 0xff) as u8;
        out.freeze()
    }
}

/// Runs `check` on `n` cases, each on its own seeded generator, and
/// names the case and seed that fail.
fn cases(n: u64, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let seed = 0x5EED_F1BB_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let run = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(seed))));
        assert!(run.is_ok(), "case {case}/{n} failed (seed {seed:#x})");
    }
}

/// Any `$t`: one time in eight 0, its least or its greatest value (so
/// the edges of every field are probed), else 64 random bits cut to it.
macro_rules! any {
    ($rng:ident, $t:ty) => {
        if $rng.gen_range(0..8) == 0 {
            [0, <$t>::MIN, <$t>::MAX][$rng.gen_range(0..3usize)]
        } else {
            $rng.next_u64() as $t
        }
    };
}

/// Draws of `draw`, as many as a first draw from `len` says.
fn vec_of<T>(
    rng: &mut StdRng,
    len: std::ops::Range<usize>,
    mut draw: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    (0..rng.gen_range(len)).map(|_| draw(rng)).collect()
}

fn arb_router(rng: &mut StdRng) -> RouterId {
    RouterId(any!(rng, u32))
}

fn arb_prefix(rng: &mut StdRng) -> Prefix {
    Prefix::new(any!(rng, u32), rng.gen_range(0..=32))
}

fn arb_kind(rng: &mut StdRng) -> LsaKind {
    [LsaKind::Router, LsaKind::Prefix, LsaKind::Fake][rng.gen_range(0..3usize)]
}

fn arb_key(rng: &mut StdRng) -> LsaKey {
    LsaKey {
        origin: arb_router(rng),
        kind: arb_kind(rng),
        id: any!(rng, u32),
    }
}

fn arb_header(rng: &mut StdRng) -> LsaHeader {
    LsaHeader {
        key: arb_key(rng),
        seq: SeqNum(any!(rng, i32)),
        age: any!(rng, u16),
    }
}

fn arb_lsa(rng: &mut StdRng) -> Lsa {
    let (mut lsa, age) = match rng.gen_range(0..3) {
        0 => {
            let (origin, seq, age) = (arb_router(rng), any!(rng, i32), any!(rng, u16));
            let links = vec_of(rng, 0..12, |rng| LsaLink {
                to: arb_router(rng),
                metric: Metric(any!(rng, u32)),
            });
            (Lsa::router(origin, SeqNum(seq), links), age)
        }
        1 => {
            let (origin, id, seq, age) = (
                arb_router(rng),
                any!(rng, u32),
                any!(rng, i32),
                any!(rng, u16),
            );
            let (p, m) = (arb_prefix(rng), any!(rng, u32));
            (Lsa::prefix(origin, id, SeqNum(seq), p, Metric(m)), age)
        }
        _ => {
            let (fid, seq, age) = (any!(rng, u32), any!(rng, i32), any!(rng, u16));
            let lsa = Lsa::fake(
                RouterId::fake(fid % 0x7fff_ffff),
                SeqNum(seq),
                arb_router(rng),
                Metric(any!(rng, u32)),
                arb_prefix(rng),
                Metric(any!(rng, u32)),
                FwAddr {
                    router: arb_router(rng),
                    addr: any!(rng, u16),
                },
            );
            (lsa, age)
        }
    };
    lsa.age = age;
    lsa
}

fn arb_packet(rng: &mut StdRng) -> Packet {
    match rng.gen_range(0..5) {
        0 => Packet::Hello(Hello {
            hello_interval: any!(rng, u16),
            dead_interval: any!(rng, u16),
            seen: vec_of(rng, 0..8, arb_router),
        }),
        1 => Packet::Dbd(Dbd {
            init: rng.gen_bool(0.5),
            more: rng.gen_bool(0.5),
            master: rng.gen_bool(0.5),
            dd_seq: any!(rng, u32),
            headers: vec_of(rng, 0..8, arb_header),
        }),
        2 => Packet::LsRequest(LsRequest {
            keys: vec_of(rng, 0..8, arb_key),
        }),
        3 => Packet::LsUpdate(LsUpdate {
            lsas: vec_of(rng, 0..6, arb_lsa),
        }),
        _ => Packet::LsAck(LsAck {
            headers: vec_of(rng, 0..8, arb_header),
        }),
    }
}

/// The single-buffer encoder writes exactly the bytes the two-buffer
/// one did, for every packet type; and the borrowed LS Update form
/// writes exactly what the owned packet form does.
#[test]
fn single_buffer_encoding_is_byte_identical() {
    cases(64, |rng| {
        let (pkt, sender) = (arb_packet(rng), arb_router(rng));
        let bytes = encode(&pkt, sender);
        assert_eq!(&bytes[..], &two_buffer::encode(&pkt, sender)[..]);
        if let Packet::LsUpdate(u) = &pkt {
            assert_eq!(&encode_ls_update(u.lsas.iter(), sender)[..], &bytes[..]);
        }
    });
}

/// The length computed without encoding is the encoding's, for every
/// packet type and all three LSA kinds.
#[test]
fn encoded_len_is_the_encoding_length() {
    cases(64, |rng| {
        let (pkt, sender) = (arb_packet(rng), arb_router(rng));
        assert_eq!(encoded_len(&pkt), encode(&pkt, sender).len());
    });
}

/// Any packet we can construct roundtrips exactly.
#[test]
fn roundtrip() {
    cases(64, |rng| {
        let (pkt, sender) = (arb_packet(rng), arb_router(rng));
        let bytes = encode(&pkt, sender);
        let (got_sender, got_pkt) = decode(bytes).expect("own encoding decodes");
        assert_eq!(got_sender, sender);
        assert_eq!(got_pkt, pkt);
    });
}

/// The decoder never panics on arbitrary bytes — it either decodes or
/// returns an error.
#[test]
fn decode_never_panics() {
    cases(64, |rng| {
        let data = vec_of(rng, 0..512, |rng| any!(rng, u8));
        let _ = decode(Bytes::from(data));
    });
}

/// Random bytes almost never carry a valid checksum, so the test above
/// stops at the header. Here valid packets get one to four body bytes
/// overwritten and the checksum stamped afresh, so every case reaches
/// the body parser (counts, LSA headers and bodies, prefixes), which
/// must reject or decode without panicking.
#[test]
fn decode_never_panics_past_the_checksum() {
    let (mut decoded, mut rejected) = (0, 0);
    cases(512, |rng| {
        let mut data = encode(&arb_packet(rng), arb_router(rng)).to_vec();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(HEADER_LEN..data.len());
            data[at] = any!(rng, u8);
        }
        data[8..10].fill(0);
        let ck = fletcher16(&data);
        data[8..10].copy_from_slice(&ck.to_be_bytes());
        match decode(Bytes::from(data)) {
            Ok(_) => decoded += 1,
            Err(WireError::BadChecksum { .. } | WireError::BadVersion(_)) => {
                panic!("a header check failed")
            }
            Err(_) => rejected += 1,
        }
    });
    // Both ways out of the body parser were taken.
    assert!(
        decoded > 50 && rejected > 50,
        "{decoded} decoded, {rejected} rejected"
    );
}

/// Single-byte truncation of a valid packet is always rejected.
#[test]
fn truncation_rejected() {
    cases(64, |rng| {
        let bytes = encode(&arb_packet(rng), RouterId(1));
        if bytes.len() > 1 {
            let cut = bytes.slice(0..bytes.len() - 1);
            assert!(decode(cut).is_err());
        }
    });
}
