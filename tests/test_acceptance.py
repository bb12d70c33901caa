"""Acceptance gate: twelve numbered criteria covering oracles, gradients,
fidelity invariants, end-to-end training directions, metrics, masks, and
formats.  Each test prints one PASS/FAIL line on the live terminal.

The training criteria are deterministic: fixed seeds give bit-stable loss
trajectories, so the numbers behind each verdict reproduce exactly.
"""

import json
import time

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import cascade as cas
from dualrec import fourier as fr
from dualrec import metrics as me
from dualrec.autodiff import Tensor
from dualrec.cli import main as cli_main
from dualrec.fidelity import (SensitivitySet, df_single, vs_x_update, wab)
from dualrec.fourier import ComplexGrid, DTLayer, fft2c, ifft2c
from dualrec.masks import SamplingMask, make_mask
from dualrec.networks import (Critic, FuNet, PrnBlock, RsnBlock, UNet,
                              gradient_penalty)
from dualrec.phantoms import (PhantomSpec, RtcContainer, gen_coil_maps,
                              gen_phantom, load_dataset, make_dataset,
                              verify_dataset)
from vif_reference import vif_reference


@pytest.fixture
def verdict(capsys):
    def emit(num, name, ok, detail=""):
        tail = f"  [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"criterion {num} {name}: {detail}"
    return emit


def oracle_ifft2(z):
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(z), norm="ortho"))


def chan(z):
    return np.stack([np.asarray(z).real, np.asarray(z).imag])


# -- shared toy datasets and training runs -------------------------------

@pytest.fixture(scope="session")
def toy_a(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_a") / "ds"
    make_dataset("single", 200, 64, 4, "cartesian", seed=101, out_dir=root)
    return load_dataset(root)


@pytest.fixture(scope="session")
def toy_b(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_b") / "ds"
    make_dataset("single", 80, 32, 4, "cartesian", seed=103, out_dir=root)
    return load_dataset(root)


@pytest.fixture(scope="session")
def toy_paired(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_p") / "ds"
    make_dataset("paired", 60, 32, 4, "cartesian", seed=105, out_dir=root)
    return load_dataset(root)


def wide_spec(**kw):
    base = dict(family="dc_rsn", n_b=1, mode="fu_with_us", size=64,
                ki_hidden=16, ii_base=16, ii_depth=2, fu_hidden=32,
                seed=7, epochs=4, batch=4, lr=1e-3)
    base.update(kw)
    return cas.CascadeSpec(**base)


def toy_spec(**kw):
    base = dict(family="dc_rsn", n_b=1, mode="fu_with_us", size=32,
                ki_hidden=8, ii_base=8, ii_depth=2, fu_hidden=16,
                golf_base=8, golf_depth=2, golf_feature_depth=4,
                seed=7, epochs=4, batch=4, lr=1e-3)
    base.update(kw)
    return cas.CascadeSpec(**base)


@pytest.fixture(scope="session")
def run_a1(toy_a, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a1")
    return cas.train(wide_spec(), toy_a, out_dir=out)


@pytest.fixture(scope="session")
def run_a3(toy_a):
    return cas.train(wide_spec(n_b=3, epochs=3), toy_a)


@pytest.fixture(scope="session")
def mode_runs(toy_b, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_modes")
    runs = {}
    for mode in ("fu_with_us", "mean", "ki_only", "ii_only"):
        runs[mode] = cas.train(toy_spec(mode=mode), toy_b,
                               out_dir=out / mode)
    return runs


@pytest.fixture(scope="session")
def t1_runs(toy_paired):
    return (cas.train(toy_spec(assists="t1"), toy_paired),
            cas.train(toy_spec(), toy_paired))


# -- criteria ------------------------------------------------------------

def test_criterion_01_oracle_equivalence(verdict):
    worst_dt = 0.0
    for size in (16, 32, 64):
        rng = np.random.default_rng(size)
        z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        layer = DTLayer(size, rng=np.random.default_rng(0))
        got = layer(Tensor(chan(z)[None])).data[0]
        worst_dt = max(worst_dt, np.abs((got[0] + 1j * got[1]) -
                                        oracle_ifft2(z)).max())

    # spectrum update against a per-frequency least-squares oracle
    size, n_c, lam, alpha = 16, 2, 3.0, 1.3
    rng = np.random.default_rng(5)
    m = ComplexGrid.from_complex(
        rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)),
        "image")
    sens = gen_coil_maps(size, size, n_c, seed=2)
    mask = make_mask("cartesian", size, size, 4, seed=3)
    y = [ComplexGrid.from_complex(
        rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)),
        "kspace") for _ in range(n_c)]
    got_x = vs_x_update(m, sens, mask, y, lam, alpha)
    worst_x = 0.0
    for i in range(n_c):
        v = fft2c(sens.maps[i].z * m.z)
        ref = np.empty((size, size), dtype=complex)
        for h in range(size):
            for w in range(size):
                if mask.bits[h, w]:
                    ref[h, w] = (alpha * v[h, w] + lam * y[i].z[h, w]) / (lam + alpha)
                else:
                    ref[h, w] = v[h, w]
        worst_x = max(worst_x, np.abs(got_x[i].z - ifft2c(ref)).max())

    # weighted average against a per-pixel oracle
    u = ComplexGrid.from_complex(
        rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)),
        "image")
    beta = 0.7
    got_m = wab(u, got_x, sens, alpha, beta).z
    ref_m = np.empty((size, size), dtype=complex)
    for h in range(size):
        for w in range(size):
            num = beta * u.z[h, w]
            den = beta
            for i in range(n_c):
                s = sens.maps[i].z[h, w]
                num += alpha * np.conj(s) * got_x[i].z[h, w]
                den += alpha * abs(s) ** 2
            ref_m[h, w] = num / den
    worst_m = np.abs(got_m - ref_m).max()

    # convolution stack against plain loop nests
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 6, 6))
    wt = rng.normal(size=(4, 3, 3, 3))
    got_c = ad.conv2d(Tensor(x), Tensor(wt), None, stride=1, padding=1).data
    ref_c = np.zeros_like(got_c)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for b in range(2):
        for f in range(4):
            for i in range(6):
                for j in range(6):
                    ref_c[b, f, i, j] = np.sum(xp[b, :, i:i + 3, j:j + 3] * wt[f])
    worst_conv = np.abs(got_c - ref_c).max()

    got_p = ad.maxpool2x2(Tensor(x)).data
    ref_p = np.zeros((2, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            ref_p[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(2, 3))
    worst_conv = max(worst_conv, np.abs(got_p - ref_p).max())

    wu = rng.normal(size=(2, 3, 2, 2))
    got_u = ad.upconv2x2(Tensor(x), Tensor(wu), None).data
    ref_u = np.zeros((2, 2, 12, 12))
    for b in range(2):
        for f in range(2):
            for i in range(6):
                for j in range(6):
                    ref_u[b, f, 2 * i:2 * i + 2, 2 * j:2 * j + 2] += \
                        np.tensordot(x[b, :, i, j], wu[f], axes=1)
    worst_conv = max(worst_conv, np.abs(got_u - ref_u).max())

    ok = worst_dt < 1e-5 and worst_x < 1e-10 and worst_m < 1e-10 and \
        worst_conv < 1e-12
    verdict(1, "oracle equivalence", ok,
            f"dt {worst_dt:.1e}, x-update {worst_x:.1e}, "
            f"wab {worst_m:.1e}, conv/pool/upconv {worst_conv:.1e}")


def _op_cases(rng):
    """(name, fn, tensors) triplets touching every differentiable op."""
    def t(*shape, positive=False, clear_of_zero=False):
        a = rng.normal(size=shape)
        if positive:
            a = np.abs(a) + 0.5
        if clear_of_zero:
            a = a + np.where(a >= 0, 0.2, -0.2)
        return Tensor(a, requires_grad=True)

    def loss(x):
        return ad.sum_all(ad.square(x))

    cases = []
    a, b = t(3, 4), t(3, 4)
    cases.append(("add", lambda: loss(ad.add(a, b)), {"a": a, "b": b}))
    cases.append(("sub", lambda: loss(ad.sub(a, b)), {"a": a, "b": b}))
    cases.append(("mul", lambda: loss(ad.mul(a, b)), {"a": a, "b": b}))
    d = t(3, 4, positive=True)
    cases.append(("div", lambda: loss(ad.div(a, d)), {"a": a, "d": d}))
    cases.append(("neg", lambda: loss(ad.neg(a)), {"a": a}))
    e = t(3, 4)
    cases.append(("exp", lambda: loss(ad.exp(e)), {"e": e}))
    p = t(3, 4, positive=True)
    cases.append(("log", lambda: loss(ad.log(p)), {"p": p}))
    cases.append(("sqrt", lambda: loss(ad.sqrt(p)), {"p": p}))
    cases.append(("square", lambda: ad.sum_all(ad.square(a)), {"a": a}))
    r = t(3, 4, clear_of_zero=True)
    cases.append(("relu", lambda: loss(ad.relu(r)), {"r": r}))
    cases.append(("leaky_relu", lambda: loss(ad.leaky_relu(r, 0.2)), {"r": r}))
    cases.append(("reshape", lambda: loss(ad.reshape(a, (4, 3))), {"a": a}))
    cases.append(("transpose", lambda: loss(ad.transpose(a, (1, 0))), {"a": a}))
    cases.append(("getitem", lambda: loss(a[:, 1:3]), {"a": a}))
    cases.append(("concat", lambda: loss(ad.concat([a, b], axis=1)),
                  {"a": a, "b": b}))
    one = t(1, 4)
    cases.append(("repeat_axis", lambda: loss(ad.repeat_axis(one, 3, 0)),
                  {"one": one}))
    cases.append(("sum_all", lambda: ad.square(ad.sum_all(a)), {"a": a}))
    cases.append(("mean_all", lambda: ad.square(ad.mean_all(a)), {"a": a}))
    cases.append(("sum_axes", lambda: loss(ad.sum_axes(a, (0,))), {"a": a}))
    cases.append(("mean_axes", lambda: loss(ad.mean_axes(a, (1,))), {"a": a}))
    ma, mb = t(3, 4), t(4, 2)
    cases.append(("matmul", lambda: loss(ad.matmul(ma, mb)),
                  {"ma": ma, "mb": mb}))
    cx, cw, cb = t(1, 2, 6, 6), t(3, 2, 3, 3), t(3)
    cases.append(("conv2d", lambda: loss(ad.conv2d(cx, cw, cb, stride=2,
                                                   padding=1)),
                  {"cx": cx, "cw": cw, "cb": cb}))
    tx, tw = t(1, 3, 4, 4), t(2, 3, 3, 3)
    cases.append(("conv_transpose2d",
                  lambda: loss(ad.conv_transpose2d(tx, tw, stride=2, padding=1,
                                                   output_size=(8, 8))),
                  {"tx": tx, "tw": tw}))
    ux, uw, ub = t(1, 2, 4, 4), t(3, 2, 2, 2), t(3)
    cases.append(("upconv2x2", lambda: loss(ad.upconv2x2(ux, uw, ub)),
                  {"ux": ux, "uw": uw, "ub": ub}))
    mx = t(1, 2, 6, 6, clear_of_zero=True)
    cases.append(("maxpool2x2", lambda: loss(ad.maxpool2x2(mx)), {"mx": mx}))
    fx = t(1, 2, 8, 8)
    cases.append(("fft2_t", lambda: loss(fr.fft2_t(fx)), {"fx": fx}))
    cases.append(("ifft2_t", lambda: loss(fr.ifft2_t(fx)), {"fx": fx}))
    return cases


def _subset(module, names):
    params = dict(module.named_parameters())
    return {n: params[n] for n in names}


def _network_cases(seed):
    rng = np.random.default_rng(seed)
    data = np.random.default_rng(seed + 1000)
    cases = []

    ki = DTLayer(8, hidden=4, rng=rng)
    kx = Tensor(data.normal(size=(1, 2, 8, 8)))
    cases.append(("ki", lambda: ad.mean_all(ad.square(ki(kx))),
                  _subset(ki, ["m1_rr", "m2_ir", "refine2.w"])))

    ii = UNet(2, 2, base=2, depth=1, residual=True, rng=rng)
    ix = Tensor(data.normal(size=(1, 2, 8, 8)))
    cases.append(("ii", lambda: ad.mean_all(ad.square(ii(ix))),
                  _subset(ii, ["enc0.c1.w", "mid.c2.w", "final.w"])))

    fu = FuNet(4, 2, hidden=4, rng=rng)
    fx = Tensor(data.normal(size=(1, 4, 8, 8)))
    cases.append(("fu", lambda: ad.mean_all(ad.square(fu(fx))),
                  _subset(fu, ["c1.w", "c5.w"])))

    rsn = RsnBlock(16, "fu_with_us", ki_hidden=4, ii_base=2, ii_depth=1,
                   fu_hidden=16, rng=rng)
    z = data.normal(size=(16, 16)) + 1j * data.normal(size=(16, 16))
    rx = Tensor(chan(ifft2c(z))[None])
    rk = Tensor(chan(z)[None])
    cases.append(("rsn", lambda: ad.mean_all(ad.square(rsn(rx, rk))),
                  _subset(rsn, ["ii.final.w", "ki.refine2.w"])))

    prn = PrnBlock(hidden=4, w_adv=1.0, w_dist=0.5, critic_base=2, rng=rng)
    mask = make_mask("cartesian", 16, 16, 4, seed=seed)
    us_k = np.where(mask.bits, z, 0.0)
    px = Tensor(chan(ifft2c(us_k))[None])
    cases.append(("prn_re_df",
                  lambda: ad.mean_all(ad.square(prn.refine(px, us_k[None], mask))),
                  _subset(prn, ["c1.w", "c5.w"])))

    critic = Critic(2, base=2, rng=rng)
    gx = data.normal(size=(2, 2, 16, 16))
    cases.append(("critic_gp", lambda: gradient_penalty(critic, gx),
                  _subset(critic, ["c2.w", "c4.w"])))
    return cases


def test_criterion_02_gradient_suite(verdict):
    t0 = time.perf_counter()
    worst, worst_name = 0.0, ""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, fn, tensors in _op_cases(rng):
            rep = ad.grad_check(fn, tensors, tolerance=1e-4)
            if rep.max_rel_err > worst:
                worst, worst_name = rep.max_rel_err, f"{name}@{seed}"
        for name, fn, tensors in _network_cases(seed):
            rep = ad.grad_check(fn, tensors, tolerance=1e-4)
            if rep.max_rel_err > worst:
                worst, worst_name = rep.max_rel_err, f"{name}@{seed}"
    dt = time.perf_counter() - t0
    verdict(2, "gradient suite", worst < 1e-4 and dt < 120,
            f"worst rel err {worst:.2e} ({worst_name}), {dt:.0f}s, 20 seeds")


def test_criterion_03_fidelity_invariants(verdict):
    size = 32
    rng = np.random.default_rng(3)
    target = gen_phantom(PhantomSpec(size=size, seed=3))
    mask = make_mask("cartesian", size, size, 4, seed=4)
    us_k = np.where(mask.bits, fft2c(target.astype(complex)), 0.0)
    zf = ifft2c(us_k)

    m = ComplexGrid.from_complex(
        rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)),
        "image")
    out = df_single(m, ComplexGrid.from_complex(us_k, "kspace"), mask)
    err_df = np.abs(fft2c(out.z)[mask.bits] - us_k[mask.bits]).max()

    model = cas.build_model(
        cas.CascadeSpec(family="dc_rsn", n_b=2, mode="fu_with_us", size=size,
                        ki_hidden=4, ii_base=4, ii_depth=2, fu_hidden=16),
        np.random.default_rng(0))
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.shape)
    got = model(Tensor(chan(zf)[None]), us_k[None], mask).data[0]
    err_dc = np.abs(fft2c(got[0] + 1j * got[1])[mask.bits] - us_k[mask.bits]).max()

    prn = PrnBlock(hidden=8, w_adv=1.0, w_dist=0.5, critic_base=4,
                   rng=np.random.default_rng(1))
    for name, p in prn.named_parameters():
        if not name.startswith("critic."):
            p.data = p.data + rng.normal(scale=0.05, size=p.shape)
    ref = prn.refine(Tensor(got[None]), us_k[None], mask).data[0]
    err_prn = np.abs(fft2c(ref[0] + 1j * ref[1])[mask.bits] - us_k[mask.bits]).max()

    sens = gen_coil_maps(size, size, 4, seed=5)
    full = SamplingMask(np.ones((size, size), bool), 2.0, "cartesian", 0)
    y = np.stack([fft2c(s.z * target) for s in sens.maps])
    vs = cas.build_model(
        cas.CascadeSpec(family="vs_rsn", n_b=2, mode="fu_with_us", size=size,
                        ki_hidden=4, ii_base=4, ii_depth=2, fu_hidden=16),
        np.random.default_rng(0))
    vout = vs(y, sens, full).data[0]
    err_fp = np.abs((vout[0] + 1j * vout[1]) - target).max()

    ok = max(err_df, err_dc, err_prn) < 1e-10 and err_fp < 1e-5
    verdict(3, "fidelity invariants", ok,
            f"df {err_df:.1e}, dc-out {err_dc:.1e}, refined {err_prn:.1e}, "
            f"vs fixed point {err_fp:.1e}")


def test_criterion_04_toy_end_to_end(verdict, toy_a, run_a1, run_a3):
    zf = cas.zero_filled_report(toy_a).mean("psnr_db")
    gain = run_a1.final_psnr - zf
    ok = gain >= 3.0 and run_a1.wall_seconds < 600 and \
        run_a3.final_psnr >= run_a1.final_psnr - 0.1
    verdict(4, "toy end-to-end", ok,
            f"zf {zf:.2f} dB, n_b=1 +{gain:.2f} dB in {run_a1.wall_seconds:.0f}s, "
            f"n_b=3 {run_a3.final_psnr - run_a1.final_psnr:+.2f} dB vs n_b=1")


def test_criterion_05_fusion_ablation(verdict, mode_runs):
    s = {k: r.final_ssim for k, r in mode_runs.items()}
    ok = s["fu_with_us"] >= s["mean"] - 0.002 and \
        s["mean"] >= max(s["ki_only"], s["ii_only"]) - 0.002
    verdict(5, "fusion ablation direction", ok,
            ", ".join(f"{k} {v:.4f}" for k, v in s.items()))


def test_criterion_06_golf_assistance(verdict, toy_b):
    # exact zero-injection equivalence at init
    target, mask = gen_phantom(PhantomSpec(size=32, seed=8)), toy_b.mask
    us_k = np.where(mask.bits, fft2c(target.astype(complex)), 0.0)
    zf = ifft2c(us_k)
    base = cas.build_model(toy_spec(), np.random.default_rng(7))
    injected = cas.build_model(toy_spec(assists="golf"), np.random.default_rng(7))
    feats = Tensor(np.random.default_rng(1).normal(size=(1, 4, 32, 32)))
    a = base(Tensor(chan(zf)[None]), us_k[None], mask).data
    b = injected(Tensor(chan(zf)[None]), us_k[None], mask, golf=feats).data
    exact = np.array_equal(a, b)

    rep = cas.train(toy_spec(assists="golf"), toy_b)
    ok = exact and rep.final_ssim >= rep.stage1.final_ssim - 0.002
    verdict(6, "golf no-op and assistance", ok,
            f"zero-injection exact={exact}, ssim {rep.final_ssim:.4f} "
            f"vs base {rep.stage1.final_ssim:.4f}")


def _local_ssim(rec, ds, staged):
    vals = []
    files = ds.manifest["files"]
    for i in ds.indices("val"):
        y0, y1, x0, x1 = files[i]["bbox"]
        cy, cx = (y0 + y1) // 2, (x0 + x1) // 2
        half = max(8, (y1 - y0) // 2 + 2, (x1 - x0) // 2 + 2)
        y0 = int(np.clip(cy - half, 0, ds.size - 2 * half))
        x0 = int(np.clip(cx - half, 0, ds.size - 2 * half))
        win = (slice(y0, y0 + 2 * half), slice(x0, x0 + 2 * half))
        mag = np.abs(rec.reconstruct(staged[i], ds.mask))
        vals.append(me.ssim(mag[win], staged[i]["target_mag"][win],
                            data_range=1.0))
    return float(np.mean(vals))


def test_criterion_07_t1_assistance(verdict, toy_paired, t1_runs):
    with_t1, plain = t1_runs
    staged = toy_paired.staged
    local_t1 = _local_ssim(with_t1.model, toy_paired, staged)
    local_plain = _local_ssim(plain.model, toy_paired, staged)
    ok = with_t1.final_ssim >= plain.final_ssim and local_t1 > local_plain
    verdict(7, "t1 assistance", ok,
            f"ssim {with_t1.final_ssim:.4f} vs {plain.final_ssim:.4f}, "
            f"planted-region ssim {local_t1:.4f} vs {local_plain:.4f}")


def test_criterion_08_misregistration(verdict, toy_paired, t1_runs):
    with_t1, _ = t1_runs
    aug = cas.train(toy_spec(assists="t1", t1_shift=2), toy_paired)
    sweep_a = cas.t1_shift_metric_sweep(aug.model, toy_paired, 2)
    sweep_p = cas.t1_shift_metric_sweep(with_t1.model, toy_paired, 2)
    spread_a = max(sweep_a.values()) - min(sweep_a.values())
    spread_p = max(sweep_p.values()) - min(sweep_p.values())
    verdict(8, "misregistration robustness", spread_a <= spread_p,
            f"ssim spread augmented {spread_a:.4f} vs plain {spread_p:.4f} "
            "over 25 shifts")


def test_criterion_09_refiner_direction(verdict, toy_b, mode_runs):
    block = PrnBlock(hidden=8, w_adv=1.0, w_dist=0.5, critic_base=4,
                     rng=np.random.default_rng(41))
    rep = cas.train_prn(block, mode_runs["fu_with_us"].model, toy_b,
                        epochs=2, batch=4, seed=41, critic_steps=2)
    staged = toy_b.staged
    base = mode_runs["fu_with_us"].model
    worst = 0.0
    moved_sq = 0.0
    for i in toy_b.indices("val"):
        out = rep.model.reconstruct(staged[i], toy_b.mask)
        worst = max(worst, np.abs(
            fft2c(out)[toy_b.mask.bits] -
            staged[i]["us_k"][toy_b.mask.bits]).max())
        moved_sq += float(np.sum(np.abs(out - base.reconstruct(staged[i], toy_b.mask)) ** 2))
    moved = float(np.sqrt(moved_sq))
    d_vif = rep.extra["vif_refined"] - rep.extra["vif_base"]
    ok = rep.extra["vif_refined"] >= rep.extra["vif_base"] and worst < 1e-10
    verdict(9, "refiner direction", ok,
            f"vif {rep.extra['vif_refined']:.4f} vs base "
            f"{rep.extra['vif_base']:.4f} (delta {d_vif!r}), "
            f"residual norm {moved:.3e}, consistency {worst:.1e}")
    # the >= above also holds for a refiner that never left its zero init
    assert moved > 0.0, ("train_prn fault: the refined reconstructions equal "
                         "the base ones on every validation slice")


def _ssim_oracle(x, ref):
    g = np.exp(-0.5 * (np.arange(11) - 5.0) ** 2 / 1.5 ** 2)
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = (0.01 * 1.0) ** 2, (0.03 * 1.0) ** 2
    h, wd = x.shape
    vals = []
    for i in range(h - 10):
        for j in range(wd - 10):
            a = x[i:i + 11, j:j + 11]
            b = ref[i:i + 11, j:j + 11]
            mu_a, mu_b = (w * a).sum(), (w * b).sum()
            va = (w * a * a).sum() - mu_a ** 2
            vb = (w * b * b).sum() - mu_b ** 2
            cov = (w * a * b).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                        ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_criterion_10_metrics(verdict):
    # diff 2^-2 and range 2.5 keep every intermediate exact, so the dB
    # value is literally 20.0
    ref = np.zeros((32, 32))
    shifted = ref + 0.25
    exact_20 = me.psnr(shifted, ref, data_range=2.5) == 20.0

    img = gen_phantom(PhantomSpec(size=32, seed=12))
    self_ok = me.ssim(img, img, data_range=1.0) == 1.0 and \
        me.vif(img, img)[0] == 1.0

    noisy = img + np.random.default_rng(0).normal(scale=0.05, size=img.shape)
    err_ssim = abs(me.ssim(noisy, img, data_range=1.0) - _ssim_oracle(noisy, img))

    big = gen_phantom(PhantomSpec(size=64, seed=13))
    dist = np.clip(big + np.random.default_rng(1).normal(scale=0.08,
                                                         size=big.shape), 0, 1)
    err_vif = abs(me.vif(dist, big)[0] - vif_reference(dist, big))

    mono = True
    last = (np.inf, np.inf, np.inf)
    for sigma in (0.01, 0.05, 0.15):
        n = big + np.random.default_rng(2).normal(scale=sigma, size=big.shape)
        now = (me.psnr(n, big, data_range=1.0), me.ssim(n, big, data_range=1.0),
               me.vif(n, big)[0])
        mono = mono and all(a < b for a, b in zip(now, last))
        last = now

    ok = exact_20 and self_ok and err_ssim < 1e-8 and err_vif < 1e-6 and mono
    verdict(10, "metrics", ok,
            f"psnr20 exact={exact_20}, identical=1 {self_ok}, "
            f"ssim oracle {err_ssim:.1e}, vif ref {err_vif:.1e}, "
            f"monotone={mono}")


def test_criterion_11_masks(verdict):
    problems = []
    for kind in ("cartesian", "gaussian", "radial", "spiral"):
        tol = (1.5 if kind in ("cartesian", "gaussian") else 2.5) / 64
        for seed in range(20):
            m = make_mask(kind, 64, 64, 4, seed=seed)
            if abs(m.fraction - 0.25) > tol:
                problems.append(f"{kind}@{seed}: fraction {m.fraction:.3f}")
            if not m.bits[32, 32]:
                problems.append(f"{kind}@{seed}: DC missing")
            if not np.array_equal(m.bits, make_mask(kind, 64, 64, 4,
                                                    seed=seed).bits):
                problems.append(f"{kind}@{seed}: not deterministic")
            if kind == "cartesian" and not np.array_equal(
                    m.bits, np.broadcast_to(m.bits[:1], m.bits.shape)):
                problems.append(f"{kind}@{seed}: columns not constant")
    verdict(11, "mask properties", not problems,
            "4 kinds x 20 seeds" if not problems else "; ".join(problems[:3]))


def test_criterion_12_formats_and_parity(verdict, toy_b, mode_runs, tmp_path):
    box = RtcContainer()
    rng = np.random.default_rng(4)
    box.add("f32", rng.normal(size=(3, 5)).astype(np.float32))
    box.add("f64", rng.normal(size=(2, 2, 2)))
    box.add("u8", rng.integers(0, 255, size=(4, 4)).astype(np.uint8))
    box.add_json("meta", {"k": [1, 2, 3]})
    p1, p2 = tmp_path / "a.rtc", tmp_path / "b.rtc"
    box.write(p1)
    RtcContainer.read(p1).write(p2)
    bit_exact = p1.read_bytes() == p2.read_bytes()

    issues = []
    for kind, kw in (("single", {}), ("multi", {"n_coils": 2}), ("paired", {})):
        root = tmp_path / kind
        make_dataset(kind, 4, 32, 4, "cartesian", seed=17, out_dir=root, **kw)
        issues += verify_dataset(root)

    ckpt = mode_runs["fu_with_us"].checkpoint
    rdir = tmp_path / "recon"
    assert cli_main(["reconstruct", "--checkpoint", str(ckpt), "--dataset",
                     str(toy_b.root), "--split", "val", "--out",
                     str(rdir)]) == 0
    csv = tmp_path / "m.csv"
    assert cli_main(["evaluate", "--recon", str(rdir), "--target",
                     str(toy_b.root), "--out", str(csv)]) == 0
    means = [float(v) for v in
             csv.read_text().strip().split("\n")[-1].split(",")[1:]]
    lib = cas.evaluate_model(cas.load_checkpoint(ckpt), toy_b, "val")
    parity = max(abs(means[0] - lib.mean("psnr_db")),
                 abs(means[1] - lib.mean("ssim")),
                 abs(means[2] - lib.mean("vif")))

    ok = bit_exact and not issues and parity < 1e-9
    verdict(12, "formats and parity", ok,
            f"rtc bit-exact={bit_exact}, dataset issues={len(issues)}, "
            f"cli/library {parity:.1e}")
