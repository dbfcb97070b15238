"""warmsum: desk-scale abstractive summarization with warm-started transformers."""

from .assembly import AssemblyMode, Checkpoint, assemble, load_checkpoint, save_checkpoint
from .corpus import CorpusExample, compute_stats, load_jsonl, split
from .decoding import beam_search
from .model import EncoderDecoderModel, ModelConfig
from .rouge import RougeScore, corpus_rouge, rouge_l, rouge_n
from .tokenizer import Vocabulary, decode, encode, train_bpe
from .training import TrainConfig, finetune, pretrain_mlm

__version__ = "0.1.0"

__all__ = [
    "AssemblyMode", "Checkpoint", "CorpusExample", "EncoderDecoderModel",
    "ModelConfig", "RougeScore", "TrainConfig", "Vocabulary",
    "assemble", "beam_search", "compute_stats", "corpus_rouge", "decode", "encode",
    "finetune", "load_checkpoint", "load_jsonl", "pretrain_mlm",
    "rouge_l", "rouge_n", "save_checkpoint", "split", "train_bpe",
]
