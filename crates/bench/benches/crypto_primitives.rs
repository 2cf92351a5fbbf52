//! Criterion bench for the crypto substrate: the primitives underlying
//! every α/β/γ figure (useful when comparing against the paper's Java
//! RSA/Santuario stack and for regression tracking).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dra_crypto::ed25519::Keypair;
use dra_crypto::field::Fe;
use dra_crypto::sealed;
use dra_crypto::sha2::{sha256, sha512};
use dra_crypto::x25519::X25519Secret;
use dra_crypto::ChaCha20;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    g.sample_size(30);

    for size in [64usize, 4096] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| b.iter(|| sha256(d)));
        g.bench_with_input(BenchmarkId::new("sha512", size), &data, |b, d| b.iter(|| sha512(d)));
        g.bench_with_input(BenchmarkId::new("chacha20", size), &data, |b, d| {
            let key = [7u8; 32];
            let nonce = [9u8; 12];
            b.iter(|| ChaCha20::process(&key, &nonce, 1, d))
        });
    }

    // the sizes a hop hashes: a whole wire document under SHA-256 (the
    // `seen/` digest), a signed message under SHA-512
    let data = vec![0xabu8; 16 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_16k", |b| b.iter(|| sha256(&data)));
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha512_1k", |b| b.iter(|| sha512(&data[..1024])));
    g.finish();

    // the rest are times per call: a second group of the same name, so that
    // no byte throughput carries over into their rows
    let mut g = c.benchmark_group("crypto");
    g.sample_size(30);

    // the field under every point operation: a dependent chain, so the
    // number is a latency, as it is inside a ladder
    let (x, y) = (Fe::from_bytes(&[0x5a; 32]), Fe::from_bytes(&[0xc3; 32]));
    g.bench_function("fe_mul", |b| {
        let mut acc = x;
        b.iter(|| {
            acc = acc.mul(&y);
            acc
        })
    });
    g.bench_function("fe_square", |b| {
        let mut acc = x;
        b.iter(|| {
            acc = acc.square();
            acc
        })
    });
    g.bench_function("fe_invert", |b| b.iter(|| criterion::black_box(x).invert()));

    // the two fixed-base paths: seed expansion + [a]B, and [k]B mapped to u
    g.bench_function("ed25519_keypair_from_seed", |b| b.iter(|| Keypair::from_seed([1u8; 32])));
    g.bench_function("x25519_public_key", |b| {
        b.iter(|| X25519Secret::from_bytes([2u8; 32]).public_key())
    });

    let kp = Keypair::from_seed([1u8; 32]);
    let msg = vec![0x42u8; 1024];
    g.bench_function("ed25519_sign_1k", |b| b.iter(|| kp.sign(&msg)));
    let sig = kp.sign(&msg);
    g.bench_function("ed25519_verify_1k", |b| b.iter(|| assert!(kp.public.verify(&msg, &sig))));

    let alice = X25519Secret::from_bytes([2u8; 32]);
    let bob = X25519Secret::from_bytes([3u8; 32]);
    let bob_pub = bob.public_key();
    g.bench_function("x25519_dh", |b| b.iter(|| alice.diffie_hellman(&bob_pub)));

    let payload = vec![0x55u8; 256];
    g.bench_function("sealed_box_seal_256", |b| b.iter(|| sealed::seal(&bob_pub, &payload)));
    let boxed = sealed::seal(&bob_pub, &payload);
    g.bench_function("sealed_box_open_256", |b| b.iter(|| sealed::open(&bob, &boxed).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
