"""Certificate formats: each kind's re-check lives beside its writer.

sumsetlab verify reaches the pipelines only through their public names, and
each certificate's recheck accepts exactly what its to_payload wrote.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import sumsetlab
from sumsetlab.oracle import FourCountOracle, UnsoundCertificate
from sumsetlab.pipeline2 import Pipeline2Certificate, construct2
from sumsetlab.pipeline_r import PipelineRCertificate, construct_r

PACKAGE = Path(sumsetlab.__file__).parent


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def construct2_payload():
    cert = construct2(FourCountOracle(2), 12, 4)
    payload = cert.to_payload()
    payload["config"] = {"oracle": "four-count", "n": 12, "m": 4}
    return payload


def construct_r_payload():
    cert = construct_r(FourCountOracle(2), 2, 12, 4)
    payload = cert.to_payload()
    payload["config"] = {"oracle": "four-count", "r": 2, "n": 12, "m": 4}
    return payload


@pytest.mark.parametrize(
    "certificate, build",
    [(Pipeline2Certificate, construct2_payload), (PipelineRCertificate, construct_r_payload)],
)
def test_recheck_accepts_own_payload_and_rejects_a_flipped_sum_color(certificate, build):
    payload = build()
    certificate.recheck(payload)
    payload["sums"][0]["color"] = 1 - payload["sums"][0]["color"]
    with pytest.raises(UnsoundCertificate):
        certificate.recheck(payload)
