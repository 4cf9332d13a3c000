import numpy as np
import pytest

from orthocal import (
    Axis,
    ConfigurationIndices,
    DomainError,
    Geometry,
    JointLimitWarning,
    Posture,
    PostureAngles,
    SingularError,
    calibration_postures,
    constraint_residuals,
    direct_kinematics,
    inverse_jacobian,
    inverse_kinematics,
    leg_line_scaling,
    posture_commanded_joints,
    posture_jacobian,
    sensitivity_table,
)

from orthocal.kinematics import _dk_jacobian, _dk_point

from conftest import constraint_residuals_oracle

L = 310.25


class TestGeometry:
    def test_prototype_constants(self, geom):
        assert geom.L == 310.25
        assert geom.rho_min == -100.0
        assert geom.rho_max == 60.0
        assert geom.r == 31.0
        assert geom.d == 80.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L=-1.0, rho_min=-100.0, rho_max=60.0),
            dict(L=310.25, rho_min=100.0, rho_max=60.0),
            dict(L=310.25, rho_min=-100.0, rho_max=-60.0),
            dict(L=310.25, rho_min=-400.0, rho_max=60.0),
            dict(L=310.25, rho_min=-100.0, rho_max=400.0),
            dict(L=np.inf, rho_min=-100.0, rho_max=60.0),
        ],
    )
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            Geometry(**kwargs)

    def test_posture_angles(self, geom):
        amax = geom.angle_max()
        amin = geom.angle_min()
        assert amax.alpha > 0 > amin.alpha
        assert amax.s_alpha == pytest.approx(60.0 / L, abs=0)
        assert amin.s_alpha == pytest.approx(-100.0 / L, abs=0)
        for ang in (amax, amin):
            assert ang.s_alpha**2 + ang.c_alpha**2 == pytest.approx(1.0, abs=1e-12)
            assert ang.t_alpha == pytest.approx(ang.s_alpha / ang.c_alpha, rel=1e-15)

    def test_configuration_indices(self):
        assert ConfigurationIndices().as_tuple() == (1, 1, 1)
        with pytest.raises(ValueError):
            ConfigurationIndices(s_x=0)


class TestInverseKinematics:
    def test_isotropic(self, geom):
        rho = inverse_kinematics([0, 0, 0], [0, 0, 0], geom)
        np.testing.assert_allclose(rho, [L, L, L], atol=0)

    def test_offsets_subtract_componentwise(self, geom):
        rho = inverse_kinematics([0, 0, 0], [1, 2, 3], geom)
        np.testing.assert_allclose(rho, [L - 1, L - 2, L - 3], atol=1e-12)

    def test_x_displaced_point(self, geom):
        rho = inverse_kinematics([60, 0, 0], [0, 0, 0], geom)
        np.testing.assert_allclose(
            rho, [370.25, 304.3929409496876, 304.3929409496876], atol=1e-10
        )
        # oracle: substitution into the sphere constraints
        res = constraint_residuals_oracle([60, 0, 0], rho, L)
        assert np.abs(res).max() <= 1e-9

    def test_unreachable_pose(self, geom):
        with pytest.raises(DomainError):
            inverse_kinematics([0, 250, 200], [0, 0, 0], geom)

    def test_joint_limit_warning(self, geom):
        with pytest.warns(JointLimitWarning):
            inverse_kinematics([65, 0, 0], [0, 0, 0], geom)

    def test_no_warning_at_limit_posture(self, geom):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse_kinematics([60, 0, 0], [0, 0, 0], geom)

    @pytest.mark.filterwarnings("ignore::orthocal.JointLimitWarning")
    def test_negative_branch_satisfies_constraints(self, geom):
        indices = ConfigurationIndices(-1, -1, -1)
        p = np.array([5.0, -10.0, 15.0])
        rho = inverse_kinematics(p, [0, 0, 0], geom, indices)
        assert np.all(rho < 0)
        res = constraint_residuals_oracle(p, rho, L)
        assert np.abs(res).max() <= 1e-9

    def test_constraint_residuals_vanish(self, geom):
        # at the joints inverse_kinematics commands, batched, with offsets
        p = np.array([[0.0, 0.0, 0.0], [5.0, -10.0, 15.0], [30.0, 20.0, -25.0]])
        offsets = np.array([0.5, -0.3, 0.2])
        rho = inverse_kinematics(p, offsets, geom)
        res = constraint_residuals(p, rho, offsets, geom)
        assert res.shape == (3, 3)
        # mm^2 residuals of terms of order L^2 = 9.6e4 mm^2
        assert np.abs(res).max() <= 1e-9
        np.testing.assert_allclose(res, constraint_residuals_oracle(p, rho + offsets, L), atol=0)

    @pytest.mark.parametrize("arg", ["p", "rho", "offsets"])
    def test_constraint_residuals_reject_non_triples(self, geom, arg):
        args = {"p": [0.0, 0.0, 0.0], "rho": [L, L, L], "offsets": [0.0, 0.0, 0.0]}
        args[arg] = [1.0, 2.0]
        with pytest.raises(ValueError, match=rf"^{arg} must have 3 components, got shape \(2,\)$"):
            constraint_residuals(args["p"], args["rho"], args["offsets"], geom)


class TestDirectKinematics:
    def test_isotropic(self, geom):
        p, roots = direct_kinematics([L, L, L], [0, 0, 0], geom)
        np.testing.assert_allclose(p, 0.0, atol=1e-12)
        assert roots.discriminant > 0

    def test_symmetric_point(self, geom):
        p, _ = direct_kinematics([311.25] * 3, [0, 0, 0], geom)
        np.testing.assert_allclose(p, 1.0032441712472746, atol=1e-10)
        res = constraint_residuals_oracle(p, [311.25] * 3, L)
        assert np.abs(res).max() <= 1e-9

    def test_round_trip_of_x_point(self, geom):
        p, _ = direct_kinematics([370.25, 304.3929409496876, 304.3929409496876], [0, 0, 0], geom)
        np.testing.assert_allclose(p, [60, 0, 0], atol=1e-9)

    def test_offsets_shift_effective_joints(self, geom):
        p_ref, _ = direct_kinematics([311.25, 309.25, 310.25], [0, 0, 0], geom)
        p_off, _ = direct_kinematics([310.25] * 3, [1, -1, 0], geom)
        np.testing.assert_allclose(p_off, p_ref, atol=1e-12)

    def test_quadratic_roots_satisfy_equation(self, geom):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = L + rng.uniform(-100, 60, 3)
            _, roots = direct_kinematics(rho, [0, 0, 0], geom)
            for t in (roots.t_minus, roots.t_plus):
                value = roots.A * t * t + roots.B * t + roots.B * roots.C
                scale = max(abs(roots.A * t * t), abs(roots.B * t), abs(roots.B * roots.C))
                assert abs(value) <= 1e-10 * scale
            assert roots.discriminant >= 0

    def test_root_discrimination_at_isotropic(self, geom):
        # the two roots give the origin and the out-of-workspace 2L/3 point;
        # both satisfy the constraints, the selector must return the origin
        p, roots = direct_kinematics([L, L, L], [0, 0, 0], geom)
        rho = np.full(3, L)
        p_minus = rho / 2 + roots.t_minus / rho
        p_plus = rho / 2 + roots.t_plus / rho
        assert np.abs(constraint_residuals_oracle(p_minus, rho, L)).max() <= 1e-6
        assert np.abs(constraint_residuals_oracle(p_plus, rho, L)).max() <= 1e-6
        np.testing.assert_allclose(p_minus, 0.0, atol=1e-12)
        np.testing.assert_allclose(p_plus, 2 * L / 3, atol=1e-9)
        np.testing.assert_allclose(p, 0.0, atol=1e-12)

    def test_negative_discriminant(self, geom):
        with pytest.raises(DomainError):
            direct_kinematics([500, 500, 500], [0, 0, 0], geom)

    def test_zero_effective_joint(self, geom):
        with pytest.raises(DomainError):
            direct_kinematics([0, L, L], [0, 0, 0], geom)

    def test_batched_input(self, geom):
        rho = np.array([[L, L, L], [311.25, 311.25, 311.25]])
        p, roots = direct_kinematics(rho, [0, 0, 0], geom)
        assert p.shape == (2, 3)
        assert np.shape(roots.t_minus) == (2,)
        np.testing.assert_allclose(p[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(p[1], 1.0032441712472746, atol=1e-10)

    def test_no_admissible_branch(self, geom):
        with pytest.raises(SingularError):
            direct_kinematics([-311.25] * 3, [0, 0, 0], geom)

    @pytest.mark.filterwarnings("ignore::orthocal.JointLimitWarning")
    def test_round_trip_over_workspace_grid(self, geom):
        # 5 mm grid over the [-100, 60]^3 box, offsets in {0, +-0.5, +-2}
        grid = np.arange(-100.0, 60.0 + 1e-9, 5.0)
        pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
        offs = (0.0, 0.5, -0.5, 2.0, -2.0)
        worst = 0.0
        for ox in offs:
            for oy in offs:
                for oz in offs:
                    dr = np.array([ox, oy, oz])
                    rho = inverse_kinematics(pts, dr, geom)
                    back, _ = direct_kinematics(rho, dr, geom)
                    worst = max(worst, float(np.abs(back - pts).max()))
                    res = constraint_residuals_oracle(back, rho + dr, L)
                    assert np.abs(res).max() <= 1e-9
        assert worst <= 1e-9

    # the TCP and every QuadraticRoots field at three joint sets of the
    # prototype, as float.hex: the isotropic and a max-X posture under
    # offsets, and mixed-sign joints that take the t_plus root.  The kernel
    # applies C's 1/4, the discriminant's 4 and q's -1/2 where each is used;
    # being powers of two, they keep these bits
    PINNED = [
        (
            [310.25, 310.25, 310.25], [0.3, -0.2, 0.5],
            ["0x1.33adb6871c000p-2", "-0x1.9879e78621800p-3", "0x1.001b794311000p-1"],
            ["0x1.9f3f9ab37e8c6p+34", "0x1.971de48eb868dp+49", "-0x1.768a61eb851ecp+14",
             "0x1.f408374b673acp+13", "-0x1.77feaea68dd72p+15", "0x1.4277cddd1150dp+101"],
        ),
        (
            [369.1975, 304.045, 304.045], [-1.0, 0.75, 0.25],
            ["0x1.cf954a278031ap+5", "0x1.50de251518000p-8", "-0x1.fb25fff7ec000p-2"],
            ["0x1.f6e896ba254c8p+34", "0x1.0928d3d390a82p+50", "-0x1.f3a6d2ea4a8c0p+13",
             "0x1.73b398c9c28dep+13", "-0x1.6ae0dbce22fb4p+15", "0x1.877e30db701b8p+101"],
        ),
        (
            [-11.57, 119.25, 245.77], [0.0, 0.0, 0.0],
            ["-0x1.1506bce763d0fp+8", "0x1.57c4435344bc2p+6", "0x1.0f4ee663c538cp+7"],
            ["0x1.9e594ff87af20p+29", "0x1.ac5a408727cf9p+36", "-0x1.2efdbb80346dcp+16",
             "0x1.884862e44e250p+11", "-0x1.98d2d16aa47c2p+11", "0x1.9a76366505658p+84"],
        ),
    ]

    @pytest.mark.parametrize("rho, offsets, p, roots", PINNED, ids=["isotropic", "max-x", "mixed"])
    def test_bits_pinned(self, geom, rho, offsets, p, roots):
        got_p, got_roots = direct_kinematics(rho, offsets, geom)
        assert [float(v).hex() for v in got_p] == p
        assert [float(getattr(got_roots, f)).hex() for f in got_roots._fields] == roots
        assert got_roots._fields == ("A", "B", "C", "t_plus", "t_minus", "discriminant")


class TestJacobians:
    def test_identity_at_isotropic(self, geom):
        M = inverse_jacobian([0, 0, 0], [L, L, L])
        np.testing.assert_allclose(M, np.eye(3), atol=0)

    def test_lower_triangular_at_x_max(self, geom):
        rho = posture_commanded_joints(Posture.max(Axis.X), geom)
        t1 = geom.angle_max().t_alpha
        M = inverse_jacobian([60, 0, 0], rho)
        expected = np.array([[1, 0, 0], [-t1, 1, 0], [-t1, 0, 1]])
        np.testing.assert_allclose(M, expected, atol=1e-12)
        # and it inverts the posture Jacobian
        J = posture_jacobian(Posture.max(Axis.X), geom)
        np.testing.assert_allclose(M @ J, np.eye(3), atol=1e-12)

    def test_singular_guard(self, geom):
        with pytest.raises(SingularError):
            inverse_jacobian([60, 0, 0], [60, 300, 300])

    def test_closed_form_with_a_small_joint(self):
        # a joint small next to its TCP coordinate, |p_0/e_0| ~ 2200: the two
        # terms of a_0 + g_0 h_0 cancel to ~1e-12, the diagonal's other form
        # keeps dp/drho within 1e-13 of LAPACK's inverse
        e = np.array([[0.05], [400.0], [420.0]])
        p = _dk_point(e, L)
        want = np.linalg.inv(inverse_jacobian(p[:, 0], e[:, 0]))
        got = _dk_jacobian(e, p)[..., 0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_closed_form_singular_guard(self):
        # s = 1 - sum p_k/e_k vanishes in the second column, exactly as it
        # does where the two roots of the direct kinematics meet
        e = np.array([[310.0, 4.0], [300.0, 4.0], [290.0, 4.0]])
        p = np.array([[5.0, 1.0], [-3.0, 2.0], [1.0, 1.0]])
        _dk_jacobian(e[:, :1], p[:, :1])
        with pytest.raises(SingularError, match="two roots meet"):
            _dk_jacobian(e, p)

    def test_inverse_of_posture_jacobian_everywhere(self, geom):
        for posture in calibration_postures():
            rho = posture_commanded_joints(posture, geom)
            p, _ = direct_kinematics(rho, [0, 0, 0], geom)
            M = inverse_jacobian(p, rho)
            J = posture_jacobian(posture, geom)
            np.testing.assert_allclose(M, np.linalg.inv(J), atol=1e-10)

    @pytest.mark.filterwarnings("ignore::orthocal.JointLimitWarning")
    def test_matches_finite_differences(self, geom):
        # dp/drho from direct kinematics vs the closed-form matrix, at 100
        # random interior points (central differences, 1e-4 mm step)
        rng = np.random.default_rng(11)
        h = 1e-4
        for _ in range(100):
            p = rng.uniform(-95, 55, 3)
            rho = inverse_kinematics(p, [0, 0, 0], geom)
            fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                hi, _ = direct_kinematics(rho + e, [0, 0, 0], geom)
                lo, _ = direct_kinematics(rho - e, [0, 0, 0], geom)
                fd[:, j] = (hi - lo) / (2 * h)
            J = np.linalg.inv(inverse_jacobian(p, rho))
            assert np.abs(fd - J).max() <= 1e-6 * np.abs(J).max()


class TestPostures:
    def test_isotropic_joints(self, geom):
        np.testing.assert_allclose(
            posture_commanded_joints(Posture.isotropic(), geom), [L, L, L], atol=0
        )

    def test_max_x_joints(self, geom):
        np.testing.assert_allclose(
            posture_commanded_joints(Posture.max(Axis.X), geom),
            [370.25, 304.3929409496876, 304.3929409496876],
            atol=1e-10,
        )

    def test_min_x_joints(self, geom):
        np.testing.assert_allclose(
            posture_commanded_joints(Posture.min(Axis.X), geom),
            [210.25, 293.6921219576719, 293.6921219576719],
            atol=1e-10,
        )

    def test_joints_within_limits(self, geom):
        lo, hi = geom.joint_bounds()
        for posture in calibration_postures():
            rho = posture_commanded_joints(posture, geom)
            assert np.all(rho >= lo - 1e-9) and np.all(rho <= hi + 1e-9)

    def test_posture_jacobian_patterns(self, geom):
        np.testing.assert_allclose(
            posture_jacobian(Posture.isotropic(), geom), np.eye(3), atol=0
        )
        t1 = geom.angle_max().t_alpha
        t2 = geom.angle_min().t_alpha
        assert t1 == pytest.approx(0.19711363809161808, rel=1e-14)
        assert t2 == pytest.approx(-0.3404926197319396, rel=1e-14)
        np.testing.assert_allclose(
            posture_jacobian(Posture.max(Axis.X), geom),
            [[1, 0, 0], [t1, 1, 0], [t1, 0, 1]],
            atol=0,
        )
        np.testing.assert_allclose(
            posture_jacobian(Posture.min(Axis.Y), geom),
            [[1, t2, 0], [0, 1, 0], [0, t2, 1]],
            atol=0,
        )

    def test_seven_calibration_postures(self):
        postures = calibration_postures()
        assert len(postures) == 7
        assert len(set(postures)) == 7

    def test_posture_sine_in_range(self):
        with pytest.raises(ValueError, match="sine of posture angle out of range: 1.0"):
            PostureAngles.from_sine(1.0)

    @pytest.mark.parametrize("value", [Axis.Y, 1, " y ", "Y", np.int64(1)])
    def test_axis_parse(self, value):
        assert Axis.parse(value) is Axis.Y

    @pytest.mark.parametrize(
        "value, error",
        [
            (True, TypeError),
            (1.0, TypeError),
            (np.float64(1.0), TypeError),
            (None, TypeError),
            ("w", ValueError),
            ("", ValueError),
            (3, ValueError),
            (-1, ValueError),
        ],
    )
    def test_axis_parse_rejects(self, geom, value, error):
        # a bool is an int to Python, but no axis; an unknown axis lists the
        # valid ones, wherever an axis is parsed
        match = "expected one of X, Y, Z" if error is ValueError else "an axis is"
        for parse in (
            Axis.parse,
            Posture.max,
            lambda leg: leg_line_scaling(Posture.isotropic(), leg, [0.0, 0.0, 0.0], geom),
        ):
            with pytest.raises(error, match=match):
                parse(value)

    def test_sensitivity_linearization(self, geom):
        # TCP displacement from direct kinematics vs the linear posture model
        # for offsets up to 0.1 mm
        rng = np.random.default_rng(4)
        for posture in calibration_postures():
            rho = posture_commanded_joints(posture, geom)
            p_nom, _ = direct_kinematics(rho, [0, 0, 0], geom)
            J = posture_jacobian(posture, geom)
            for _ in range(10):
                dr = rng.uniform(-0.1, 0.1, 3)
                p, _ = direct_kinematics(rho, dr, geom)
                assert np.abs((p - p_nom) - J @ dr).max() <= 1e-3


class TestSensitivityTable:
    def test_unit_offsets(self, geom):
        rows = sensitivity_table(geom, [1, 1, 1])
        assert len(rows) == 12
        iso = [r for r in rows if r.posture == "isotropic"]
        assert len(iso) == 6
        for r in iso:
            assert r.value == pytest.approx(1.0, abs=0)
        t1 = geom.angle_max().t_alpha
        t2 = geom.angle_min().t_alpha
        disp = [r for r in rows if r.posture != "isotropic"]
        assert len(disp) == 6
        for r in disp:
            assert r.at_max == pytest.approx(1 + t1, rel=1e-14)
            assert r.at_min == pytest.approx(1 + t2, rel=1e-14)

    def test_min_x_displacement_xy_value(self, geom):
        rows = sensitivity_table(geom, [1, 1, 1])
        (row,) = [
            r
            for r in rows
            if r.posture == "max/min X-displacement" and r.plane == "XY"
        ]
        assert row.leg is Axis.X
        assert row.at_min == pytest.approx(0.6595073802680604, rel=1e-14)

    def test_zero_offsets(self, geom):
        for r in sensitivity_table(geom, [0, 0, 0]):
            assert r.at_max == 0.0 and r.at_min == 0.0

    def test_batch_rejected(self, geom):
        with pytest.raises(ValueError, match="^sensitivity_table expects a single offset triple"):
            sensitivity_table(geom, np.zeros((2, 3)))

    def test_value_of_a_displacement_row_raises(self, geom):
        # a displacement row has distinct max and min values: no single value
        row = sensitivity_table(geom, [1, 1, 1])[6]
        assert row.posture == "max/min X-displacement" and row.at_max != row.at_min
        with pytest.raises(ValueError, match="^row has distinct max/min values"):
            row.value

    def test_row_expressions(self, geom):
        # each deviation pairs the leg offset (through tan alpha) with the
        # offset perpendicular to the gauged plane
        dr = [0.2, -0.4, 0.3]
        perp = {"XY": 2, "XZ": 1, "YZ": 0}
        t1 = geom.angle_max().t_alpha
        for r in sensitivity_table(geom, dr):
            if r.posture == "isotropic":
                assert r.value == dr[perp[r.plane]]
            else:
                assert r.at_max == pytest.approx(
                    t1 * dr[r.leg] + dr[perp[r.plane]], rel=1e-14
                )
