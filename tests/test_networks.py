"""Network building blocks: log-gradient maps, UNet, fusion net, block
composition modes, guidance features, the refiner, and the critic."""

import math

import numpy as np
import pytest

from conftest import oracle_fft2, oracle_ifft2, random_complex
from dualrec import autodiff as ad
from dualrec import networks as nw
from dualrec.autodiff import Tensor
from dualrec.errors import (ConfigError, DimensionError, DomainError,
                            ParameterError, StateError)
from dualrec.fidelity import df_single
from dualrec.fourier import ComplexGrid
from dualrec.masks import make_cartesian


def chan(z):
    return np.stack([z.real, z.imag], axis=0)


class TestGol:
    def test_constant_image_maps_to_zero(self):
        out = nw.gol(np.full((10, 10), 0.37))
        assert np.array_equal(out, np.zeros((2, 10, 10)))

    def test_exponential_ramp(self):
        a, eps = 0.1, 1e-6
        xx = np.arange(12)[None, :].repeat(9, axis=0).astype(np.float64)
        img = np.exp(a * xx) - eps
        out = nw.gol(img, eps=eps)
        assert np.max(np.abs(out[0, :, :-1] - a)) < 1e-12
        assert np.array_equal(out[0, :, -1], np.zeros(9))
        assert np.max(np.abs(out[1])) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0.0, 1.0, size=(12, 13))
        out = nw.gol(img)
        lg = np.log(img + 1e-6)
        for r in range(12):
            for c in range(13):
                dx = lg[r, c + 1] - lg[r, c] if c + 1 < 13 else 0.0
                dy = lg[r + 1, c] - lg[r, c] if r + 1 < 12 else 0.0
                assert abs(out[0, r, c] - dx) < 1e-14
                assert abs(out[1, r, c] - dy) < 1e-14

    def test_leading_singleton_accepted(self):
        img = np.random.default_rng(0).uniform(0, 1, size=(1, 8, 8))
        assert nw.gol(img).shape == (2, 8, 8)

    def test_negative_pixel_rejected(self):
        img = np.ones((8, 8))
        img[3, 3] = -0.01
        with pytest.raises(DomainError):
            nw.gol(img)

    def test_bad_eps_rejected(self):
        with pytest.raises(ParameterError):
            nw.gol(np.ones((8, 8)), eps=0.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(DimensionError):
            nw.gol(np.ones((3, 8, 8)))


class TestUNet:
    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_shape_preserved(self, size, depth):
        net = nw.UNet(2, 2, base=4, depth=depth, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, size, size)))
        assert net(x).shape == x.shape

    def test_zero_input_finite(self):
        net = nw.UNet(2, 2, base=4, depth=2, rng=np.random.default_rng(2))
        out = net(Tensor(np.zeros((1, 2, 16, 16))))
        assert np.all(np.isfinite(out.data))

    def test_residual_identity_at_init(self):
        net = nw.UNet(2, 2, base=4, depth=2, residual=True,
                      rng=np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(2, 2, 16, 16))
        assert np.array_equal(net(Tensor(x)).data, x)

    def test_divisibility_enforced(self):
        net = nw.UNet(2, 2, base=4, depth=3, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            net(Tensor(np.zeros((1, 2, 20, 20))))

    def test_guidance_injection_is_noop_at_init(self):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        plain = nw.UNet(2, 2, base=4, depth=2, rng=rng_a)
        inj = nw.UNet(2, 2, base=4, depth=2, golf_channels=5, rng=rng_b)
        gen = np.random.default_rng(8)
        x = Tensor(gen.normal(size=(1, 2, 16, 16)))
        golf = Tensor(gen.normal(size=(1, 5, 16, 16)))
        assert np.array_equal(inj(x, golf=golf).data, plain(x).data)

    def test_guidance_mismatch_rejected(self):
        plain = nw.UNet(2, 2, base=4, depth=2, rng=np.random.default_rng(0))
        inj = nw.UNet(2, 2, base=4, depth=2, golf_channels=3,
                      rng=np.random.default_rng(0))
        x = Tensor(np.zeros((1, 2, 16, 16)))
        with pytest.raises(ConfigError):
            plain(x, golf=Tensor(np.zeros((1, 3, 16, 16))))
        with pytest.raises(ConfigError):
            inj(x)

    def test_residual_needs_matching_channels(self):
        with pytest.raises(ParameterError):
            nw.UNet(2, 3, residual=True, rng=np.random.default_rng(0))

    def test_gradients_match_finite_differences(self):
        net = nw.UNet(1, 1, base=2, depth=2, residual=True,
                      rng=np.random.default_rng(11))
        gen = np.random.default_rng(12)
        x = Tensor(gen.normal(size=(1, 1, 8, 8)), requires_grad=True)
        target = gen.normal(size=(1, 1, 8, 8))
        checked = {"x": x, "final.w": net.final.w, "enc0.c1.w": net.enc0.c1.w}

        def loss():
            return ad.mean_all(ad.square(ad.sub(net(x), Tensor(target))))

        report = ad.grad_check(loss, checked, tolerance=1e-4)
        assert report.passed, report


class TestFuNet:
    def test_averaging_init_is_exact_group_mean(self):
        net = nw.FuNet.averaging(2, 2, hidden=16, rng=np.random.default_rng(0))
        gen = np.random.default_rng(1)
        a = gen.normal(size=(3, 2, 12, 12))
        b = gen.normal(size=(3, 2, 12, 12))
        out = net(Tensor(np.concatenate([a, b], axis=1)))
        assert np.max(np.abs(out.data - 0.5 * (a + b))) < 1e-12

    def test_averaging_ignores_extra_groups(self):
        net = nw.FuNet.averaging(4, 2, hidden=32, rng=np.random.default_rng(2))
        gen = np.random.default_rng(3)
        groups = [gen.normal(size=(1, 2, 8, 8)) for _ in range(4)]
        out = net(Tensor(np.concatenate(groups, axis=1)))
        assert np.max(np.abs(out.data - 0.5 * (groups[0] + groups[1]))) < 1e-12

    def test_hidden_too_small_rejected(self):
        with pytest.raises(ParameterError):
            nw.FuNet.averaging(3, 2, hidden=8, rng=np.random.default_rng(0))

    def test_bad_avg_groups_rejected(self):
        with pytest.raises(ParameterError):
            nw.FuNet.averaging(1, 2, rng=np.random.default_rng(0))

    def test_gradients_match_finite_differences(self):
        net = nw.FuNet(2, 1, hidden=3, rng=np.random.default_rng(4))
        gen = np.random.default_rng(5)
        x = Tensor(gen.normal(size=(1, 2, 6, 6)), requires_grad=True)

        def loss():
            return ad.mean_all(ad.square(net(x)))

        report = ad.grad_check(loss, {"x": x, "c5.w": net.c5.w}, tolerance=1e-4)
        assert report.passed, report


def _small_block(mode, **kw):
    return nw.RsnBlock(16, mode, ki_hidden=4, ii_base=2, ii_depth=1,
                       fu_hidden=16, rng=np.random.default_rng(9), **kw)


def _graph(root):
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(node._parents)
    return list(found.values())


def _op(node):
    return node._backward.__qualname__.split(".")[0] if node._backward else None


class TestRsnBlock:
    @pytest.mark.parametrize("mode", nw.RSN_MODES)
    def test_shapes_and_zero_filled_start(self, mode):
        block = nw.RsnBlock(64, mode, ki_hidden=4, ii_base=2, ii_depth=2,
                            rng=np.random.default_rng(1))
        z = random_complex(np.random.default_rng(2), (64, 64))
        mask = make_cartesian(64, 64, 4.0, seed=3)
        us_k = np.where(mask.bits, oracle_fft2(z), 0.0)
        zf = oracle_ifft2(us_k)
        out = block(Tensor(chan(zf)[None]), Tensor(chan(us_k)[None]))
        assert out.shape == (1, 2, 64, 64)
        # every composition starts at the zero-filled image: the transform
        # stage inverts exactly, residual and fusion parts start as identity
        assert np.max(np.abs(out.data[0] - chan(zf))) < 1e-8

    def test_mean_mode_with_equal_branches(self):
        block = _small_block("mean")
        gen = np.random.default_rng(4)
        us_img = Tensor(gen.normal(size=(1, 2, 16, 16)))
        us_k = Tensor(gen.normal(size=(1, 2, 16, 16)))
        ki_out = block.ki(us_k)
        block.ii = lambda x, golf=None: ki_out
        out = block(us_img, us_k)
        assert np.array_equal(out.data, ki_out.data)

    def test_fu_equals_mean_at_init(self):
        gen = np.random.default_rng(5)
        us_img = Tensor(gen.normal(size=(2, 2, 16, 16)))
        us_k = Tensor(gen.normal(size=(2, 2, 16, 16)))
        out_mean = _small_block("mean")(us_img, us_k)
        out_fu = _small_block("fu")(us_img, us_k)
        assert np.max(np.abs(out_fu.data - out_mean.data)) < 1e-12

    def test_fu_with_us_channel_counts(self):
        assert _small_block("fu").fu.in_ch == 4
        assert _small_block("fu_with_us").fu.in_ch == 6
        assert _small_block("fu_with_us", t1_assist=True).fu.in_ch == 8

    def test_assist_argument_mismatches(self):
        gen = np.random.default_rng(6)
        us_img = Tensor(gen.normal(size=(1, 2, 16, 16)))
        us_k = Tensor(gen.normal(size=(1, 2, 16, 16)))
        t1 = Tensor(gen.normal(size=(1, 2, 16, 16)))
        with pytest.raises(ConfigError):
            _small_block("fu", t1_assist=True)(us_img, us_k)
        with pytest.raises(ConfigError):
            _small_block("fu")(us_img, us_k, t1=t1)
        with pytest.raises(ConfigError):
            _small_block("fu")(us_img, us_k, golf=Tensor(np.zeros((1, 8, 16, 16))))
        with pytest.raises(ConfigError):
            _small_block("fu", golf_inject=True)(us_img, us_k)

    def test_t1_needs_fusion_mode(self):
        with pytest.raises(ConfigError):
            _small_block("mean", t1_assist=True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            _small_block("geometric_mean")

    def test_guidance_injection_noop_at_init(self):
        gen = np.random.default_rng(7)
        us_img = Tensor(gen.normal(size=(1, 2, 16, 16)))
        us_k = Tensor(gen.normal(size=(1, 2, 16, 16)))
        golf = Tensor(gen.normal(size=(1, 8, 16, 16)))
        base = _small_block("fu_with_us")
        inj = _small_block("fu_with_us", golf_inject=True)
        assert np.array_equal(inj(us_img, us_k, golf=golf).data,
                              base(us_img, us_k).data)

    def test_training_graph_stacks_conv_inputs_in_place(self):
        """The Fu net and the UNet decoder read their stacked inputs in place:
        the UNet builds no concat node, and the block's only one is the KI
        layer's re/im pair, read by the KI refinement head."""
        block = nw.RsnBlock(16, "fu_with_us", t1_assist=True, ki_hidden=4, ii_base=2,
                            ii_depth=2, fu_hidden=16,
                            rng=np.random.default_rng(3)).astype(np.float32)
        gen = np.random.default_rng(4)
        us_img, us_k, t1 = (Tensor(gen.normal(size=(2, 2, 16, 16)).astype(np.float32))
                            for _ in range(3))
        ops = {}
        for root, name in ((ad.mean_all(block(us_img, us_k, t1=t1)), "block"),
                           (ad.mean_all(block.ii(us_img)), "unet")):
            ops[name] = [(_op(n), [_op(p) for p in n._parents]) for n in _graph(root)]
        assert not any(op == "concat" for op, _ in ops["unet"])
        assert sum(op == "concat" for op, _ in ops["block"]) == 1
        assert sum(op == "conv2d" and "concat" in parents
                   for op, parents in ops["block"]) == 1
        # the Fu net's first conv reads KI, II, the input and T1, then w and b
        assert ["add", "add", None, None, None, None] in [
            parents for op, parents in ops["block"] if op == "conv2d"]

    def test_gradients_match_finite_differences(self):
        block = _small_block("fu_with_us", t1_assist=True)
        gen = np.random.default_rng(8)
        us_img = Tensor(gen.normal(size=(1, 2, 8, 8)), requires_grad=True)
        us_k = Tensor(gen.normal(size=(1, 2, 8, 8)))
        t1 = Tensor(gen.normal(size=(1, 2, 8, 8)))
        block2 = nw.RsnBlock(8, "fu_with_us", t1_assist=True, ki_hidden=4,
                             ii_base=2, ii_depth=1, fu_hidden=16,
                             rng=np.random.default_rng(9))

        def loss():
            return ad.mean_all(ad.square(block2(us_img, us_k, t1=t1)))

        checked = {"us_img": us_img, "fu.c5.w": block2.fu.c5.w,
                   "ki.refine2.w": block2.ki.refine2.w}
        report = ad.grad_check(loss, checked, tolerance=1e-4)
        assert report.passed, report


class TestGolfModule:
    def test_feature_shape_and_purity(self):
        mod = nw.GolfModule(feature_depth=8, base=4, depth=2,
                            rng=np.random.default_rng(0))
        mod.trained = True
        x = Tensor(np.random.default_rng(1).uniform(0, 1, size=(2, 1, 16, 16)))
        with ad.no_grad():
            f1 = mod.features(x)
            f2 = mod.features(x)
        assert f1.shape == (2, 8, 16, 16)
        assert not f1._parents
        assert np.array_equal(f1.data, f2.data)

    def test_untrained_module_rejected(self):
        mod = nw.GolfModule(base=4, depth=2, rng=np.random.default_rng(0))
        with pytest.raises(StateError):
            mod.features(Tensor(np.zeros((1, 1, 16, 16))))

    def test_predict_gol_shape(self):
        mod = nw.GolfModule(base=4, depth=2, rng=np.random.default_rng(0))
        out = mod.predict_gol(Tensor(np.random.default_rng(2).uniform(
            0, 1, size=(1, 1, 16, 16))))
        assert out.shape == (1, 2, 16, 16)

    def test_bad_feature_input_rejected(self):
        mod = nw.GolfModule(base=4, depth=2, rng=np.random.default_rng(0))
        mod.trained = True
        with pytest.raises(DimensionError):
            mod.features(Tensor(np.zeros((1, 2, 16, 16))))


def _prn_inputs(seed, size=16):
    gen = np.random.default_rng(seed)
    z = random_complex(gen, (size, size))
    mask = make_cartesian(size, size, 4.0, seed=seed)
    us_k = np.where(mask.bits, oracle_fft2(z), 0.0)
    recon = oracle_ifft2(us_k)
    return recon, us_k, mask


class TestPrnBlock:
    def test_init_equals_plain_spectrum_replacement(self):
        block = nw.PrnBlock(hidden=8, critic_base=4, rng=np.random.default_rng(0))
        recon, us_k, mask = _prn_inputs(1)
        out = block.refine(Tensor(chan(recon)[None]), us_k, mask)
        want = df_single(ComplexGrid.from_complex(recon, "image"),
                         ComplexGrid.from_complex(us_k, "kspace"), mask)
        assert np.max(np.abs(out.data[0, 0] + 1j * out.data[0, 1] - want.z)) < 1e-12

    def test_omega_consistency(self):
        block = nw.PrnBlock(hidden=8, critic_base=4, rng=np.random.default_rng(2))
        gen = np.random.default_rng(3)
        for p in block.re_parameters():
            p.data = p.data + 0.05 * gen.normal(size=p.shape)
        recon, us_k, mask = _prn_inputs(4)
        out = block.refine(Tensor(chan(recon)[None]), us_k, mask)
        spec = oracle_fft2(out.data[0, 0] + 1j * out.data[0, 1])
        assert np.max(np.abs(spec[mask.bits] - us_k[mask.bits])) < 1e-10

    def test_loss_weight_invariant(self):
        with pytest.raises(ParameterError):
            nw.PrnBlock(w_adv=0.1, w_dist=1.0, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            nw.PrnBlock(w_adv=1.0, w_dist=0.0, rng=np.random.default_rng(0))
        for w_adv, w_dist in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan)):
            with pytest.raises(ParameterError, match="finite"):
                nw.PrnBlock(w_adv=w_adv, w_dist=w_dist, rng=np.random.default_rng(0))

    def test_gradients_reach_every_refiner_parameter(self):
        block = nw.PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(5))
        gen = np.random.default_rng(6)
        for p in block.re_parameters():
            p.data = p.data + 0.1 * gen.normal(size=p.shape)
        recon, us_k, mask = _prn_inputs(7)
        out = block.refine(Tensor(chan(recon)[None]), us_k, mask)
        target = chan(random_complex(gen, (16, 16)))[None]
        loss = ad.mean_all(ad.square(ad.sub(out, Tensor(target))))
        loss.backward()
        for name, p in block.named_parameters():
            if name.startswith("critic."):
                continue
            assert p.grad is not None and np.any(p.grad != 0), name

    def test_refine_gradcheck_through_replacement(self):
        block = nw.PrnBlock(hidden=3, critic_base=4, rng=np.random.default_rng(8))
        gen = np.random.default_rng(9)
        for p in block.re_parameters():
            p.data = p.data + 0.1 * gen.normal(size=p.shape)
        recon, us_k, mask = _prn_inputs(10, size=8)
        x = Tensor(chan(recon)[None], requires_grad=True)
        target = chan(random_complex(gen, (8, 8)))[None]

        def loss():
            out = block.refine(x, us_k, mask)
            return ad.mean_all(ad.square(ad.sub(out, Tensor(target))))

        report = ad.grad_check(loss, {"x": x, "c5.w": block.c5.w}, tolerance=1e-4)
        assert report.passed, report

    def test_bad_input_shape_rejected(self):
        block = nw.PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(0))
        recon, us_k, mask = _prn_inputs(0)
        with pytest.raises(DimensionError):
            block.refine(Tensor(chan(recon)), us_k, mask)


def _penalty_written_out(critic, x):
    """gradient_penalty with the LeakyReLU 0.2 and slope masks of
    Critic.input_gradient written out by np.where, independent of the fused
    conv activation."""
    convs = (critic.c1, critic.c2, critic.c3, critic.c4)
    masks, sizes, t = [], [], x
    for i, conv in enumerate(convs):
        sizes.append(t.shape[2:])
        t = ad.conv2d(Tensor(t), conv.w.data, conv.b.data, stride=2, padding=1).data
        if i < 3:
            masks.append(np.where(t > 0, 1.0, 0.2).astype(t.dtype))
            t = np.where(t > 0, t, 0.2 * t)
    g = Tensor(np.full(t.shape, 1.0 / (t.shape[1] * t.shape[2] * t.shape[3]), dtype=t.dtype))
    for i in range(3, -1, -1):
        g = ad.conv_transpose2d(g, ad.transpose(convs[i].w, (1, 0, 2, 3)), stride=2,
                                padding=1, output_size=sizes[i])
        if i > 0:
            g = ad.mul(g, Tensor(masks[i - 1]))
    norms = ad.sqrt(ad.sum_axes(ad.square(g), (1, 2, 3)))
    return ad.mean_all(ad.square(ad.sub(norms, Tensor(np.ones_like(norms.data)))))


class TestCritic:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradient_penalty_bitwise_as_written_out(self, dtype):
        critic = nw.Critic(base=4, rng=np.random.default_rng(8)).astype(dtype)
        x = np.random.default_rng(9).normal(size=(2, 2, 16, 16)).astype(dtype)
        runs = []
        for penalty in (nw.gradient_penalty, _penalty_written_out):
            critic.zero_grad()
            gp = penalty(critic, x)
            gp.backward()
            # the biases only set the slope masks, so only the weights get grads
            runs.append([gp.data] + [p.grad for name, p in critic.named_parameters()
                                     if name.endswith(".w")])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_score_finite_and_pure(self):
        critic = nw.Critic(rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 64, 64)))
        with ad.no_grad():
            s1 = critic(x).data
            s2 = critic(x).data
        assert s1.shape == (1,)
        assert np.isfinite(s1).all() and np.array_equal(s1, s2)

    def test_batch_scores(self):
        critic = nw.Critic(rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(3, 2, 32, 32))
        assert critic(Tensor(x)).shape == (3,)

    @pytest.mark.parametrize("seed", range(6))
    def test_input_gradient_matches_backward(self, seed):
        critic = nw.Critic(base=4, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 100).normal(size=(2, 2, 16, 16))
        xt = Tensor(x, requires_grad=True)
        ad.sum_all(critic(xt)).backward()
        manual = critic.input_gradient(x)
        assert np.max(np.abs(manual.data - xt.grad)) < 1e-10

    def test_gradient_penalty_finite_and_trains_weights(self):
        critic = nw.Critic(base=4, rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(2, 2, 16, 16))
        gp = nw.gradient_penalty(critic, x)
        assert np.isfinite(float(gp.data))
        gp.backward()
        grads = [p.grad for _, p in critic.named_parameters() if p.name.endswith(".w")]
        assert all(g is not None and np.all(np.isfinite(g)) for g in grads)
        assert any(np.any(g != 0) for g in grads)

    def test_gradient_penalty_gradcheck(self):
        critic = nw.Critic(base=2, rng=np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=(1, 2, 8, 8))

        def loss():
            return nw.gradient_penalty(critic, x)

        checked = {"c2.w": critic.c2.w, "c4.w": critic.c4.w}
        report = ad.grad_check(loss, checked, tolerance=1e-4)
        assert report.passed, report
