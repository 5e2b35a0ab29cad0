// Umbrella header: the full lateral public API.
//
// Downstream users can include subsystem headers individually (preferred
// for build times) or this single header for exploration and prototyping.
#pragma once

// Foundations.
#include "util/hex.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/types.h"

// Cryptography (from scratch; simulation-scale parameters).
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

// Simulated hardware.
#include "hw/attacker.h"
#include "hw/cost_model.h"
#include "hw/iommu.h"
#include "hw/machine.h"
#include "hw/memory.h"

// The unified isolation interface and its eight backends.
#include "cheri/cheri.h"
#include "ftpm/ftpm.h"
#include "microkernel/microkernel.h"
#include "noc/noc.h"
#include "sep/sep.h"
#include "sgx/sgx.h"
#include "substrate/isolation.h"
#include "substrate/quote.h"
#include "substrate/registry.h"
#include "substrate/substrate.h"
#include "tpm/pcr_bank.h"
#include "tpm/tpm.h"
#include "trustzone/trustzone.h"

// The assumed-compromised legacy world.
#include "legacy/filesystem.h"
#include "legacy/legacy_os.h"

// Component ecosystem.
#include "core/attestation.h"
#include "core/composer.h"
#include "core/launch.h"
#include "core/manifest.h"
#include "core/policy.h"
#include "core/session.h"
#include "core/standard_registry.h"
#include "core/tcb.h"
#include "core/trust_graph.h"

// Trusted component toolbox.
#include "gui/secure_gui.h"
#include "net/federation.h"
#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "runtime/async_proxy.h"
#include "runtime/completion_queue.h"
#include "runtime/metrics.h"
#include "runtime/spsc_ring.h"
#include "toolbox/anonymizer.h"
#include "toolbox/authenticator.h"
#include "toolbox/gateway.h"
#include "toolbox/trusted_wrapper.h"
#include "vpfs/vpfs.h"

// The decomposed mail application.
#include "mail/addressbook.h"
#include "mail/client.h"
#include "mail/imap.h"
#include "mail/input_method.h"
#include "mail/mailstore.h"
#include "mail/message.h"
#include "mail/render.h"
