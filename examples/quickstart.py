#!/usr/bin/env python3
"""Quickstart: stand up PALAEMON, create a policy, attest an app, get secrets.

This walks the minimal end-to-end path of the paper's §IV:

1. build a simulated SGX platform and an IAS;
2. start a PALAEMON instance (Fig 6 startup protocol) and certify it via
   the PALAEMON CA;
3. a client attests the instance and creates a security policy from a
   YAML document shaped like the paper's List 1;
4. the SCONE runtime launches the application, which is attested and
   receives its arguments, environment, file-system key, and injected
   config file — without any source-code change.

Run:  python examples/quickstart.py
"""

from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import SecurityPolicy
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.sim.core import Simulator
from repro.sim.network import Site
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

POLICY_YAML = """
# $NAME placeholders are filled in from the measured image at load time;
# $$PALAEMON$NAME$$ variables are filled in by PALAEMON inside the TEE.
name: quickstart_policy
services:
  - name: web_app
    image_name: web-app-image
    command: [app, '--listen=0.0.0.0:8443']
    environment:
      DEPLOYMENT: production
      API_KEY: $$PALAEMON$API_KEY$$
    mrenclaves:
      - $APP_MRENCLAVE
    inject_files:
      "/etc/app/tls.conf": "private_key = $$PALAEMON$TLS_KEY$$\\n"
      '/etc/app/db.conf': "password = $$PALAEMON$DB_PASSWORD$$\\n"
secrets:
  - name: API_KEY
    kind: random
    size: 32
    export:  # no other policy may import it
  - name: TLS_KEY
    kind: x509
    common_name: app.example.com
  - name: DB_PASSWORD  # chosen by the operator, not generated
    kind: explicit
    value: 'correct horse battery staple'
"""


def main() -> None:
    rng = DeterministicRandom(b"quickstart")
    simulator = Simulator()

    # --- infrastructure: a platform, IAS, PALAEMON, and its CA ------------
    platform = SGXPlatform(simulator, "node-1", rng.fork(b"platform"))
    ias = IntelAttestationService(simulator, Site.IAS_US, rng.fork(b"ias"))
    ias.register_platform(platform.quoting_enclave.attestation_public_key,
                          platform.microcode.revision)

    palaemon = PalaemonService(platform, BlockStore("palaemon-volume"),
                               rng.fork(b"palaemon"))
    palaemon.platform_registry.enroll(
        platform.platform_id,
        platform.quoting_enclave.attestation_public_key)
    simulator.run_process(palaemon.start())
    print(f"PALAEMON instance up, MRENCLAVE "
          f"{palaemon.mrenclave.hex()[:16]}...")

    ca = PalaemonCA(platform, ias, frozenset({palaemon.mrenclave}),
                    rng.fork(b"ca"))
    palaemon.obtain_certificate(ca)
    print("PALAEMON CA issued the instance certificate (IAS-attested).")

    # --- a client attests the instance and creates a policy ---------------
    client = PalaemonClient("quickstart-client", rng.fork(b"client"))
    client.attest_instance_via_ca(palaemon, ca.root_public_key,
                                  now=simulator.now)
    print("Client attested the instance via the CA root.")

    app_image = build_image("web-app-image", seed=b"release-1")
    policy = SecurityPolicy.from_yaml(
        POLICY_YAML,
        mrenclave_registry={"APP_MRENCLAVE": app_image.mrenclave()})
    client.create_policy(palaemon, policy)
    print(f"Policy {policy.name!r} created "
          f"({len(policy.secrets)} secrets materialized).")

    # --- launch the application through the SCONE runtime -----------------
    runtime = SconeRuntime(platform, palaemon, rng.fork(b"runtime"))
    app = runtime.launch(app_image, "quickstart_policy", "web_app")
    print("Application attested and configured:")
    print(f"  argv        = {app.argv()}   (no secrets: argv is visible "
          f"through /proc outside the TEE)")
    print(f"  DEPLOYMENT  = {app.getenv('DEPLOYMENT')}")
    print(f"  API_KEY     = {len(app.getenv('API_KEY'))} bytes, "
          f"delivered via the enclave environment")
    tls_conf = app.read_file("/etc/app/tls.conf")
    print(f"  /etc/app/tls.conf starts with {tls_conf[:24]!r} "
          f"({len(tls_conf)} bytes, secret injected in enclave memory)")
    assert b"$$PALAEMON$" not in tls_conf
    db_conf = app.read_file("/etc/app/db.conf")
    assert b"correct horse battery staple" in db_conf
    print("  /etc/app/db.conf carries the operator-chosen DB_PASSWORD")

    # --- the shielded file system in action ------------------------------
    app.write_file("/data/records.db", b"row1,row2,row3")
    app.exit_cleanly()
    print(f"App exited cleanly; expected tag at PALAEMON: "
          f"{palaemon.get_tag_instant('quickstart_policy', 'web_app').hex()[:16]}...")

    # A restart on the same volume verifies freshness and sees the data.
    restarted = runtime.launch(app_image, "quickstart_policy", "web_app",
                               volume=app.fs.store)
    assert restarted.read_file("/data/records.db") == b"row1,row2,row3"
    print("Restart verified the volume tag and recovered the data. Done.")


if __name__ == "__main__":
    main()
